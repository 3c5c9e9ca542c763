"""Exception types shared across the toolkit."""


class AlgebraError(Exception):
    """Hard fault: inconsistent contexts or misuse of an algebraic object."""


class NotEtale(AlgebraError):
    """The requested quadratic algebra is not etale (separability fails)."""


class Reducible(AlgebraError):
    """The polynomial of a quadratic field extension has a root in its base."""


class ZeroParameter(AlgebraError):
    """A construction parameter that must be invertible is zero."""


class SplitK(AlgebraError):
    """Operation requires a quadratic field extension, got a split algebra."""


class BudgetExhausted(Exception):
    """A bounded search ran out of budget without a decision.

    Distinct from a proven negative: the answer is simply unknown.
    """

    def __init__(self, message, searched=None):
        super().__init__(message)
        self.searched = searched


class OracleIncomplete(Exception):
    """An isotropy oracle returned Unknown where a decision was required."""


class InternalContradiction(AlgebraError):
    """A proof-step invariant failed; indicates an implementation bug."""


class NotIsotropic(AlgebraError):
    """Expected an isotropic form or vector."""


class IdentityFails(AlgebraError):
    """The central identity f(xi)^2 = phi(xi) was falsified."""


class RelationViolation(AlgebraError):
    """A Clifford defining relation is not respected by the candidate map."""


class RankDeficient(AlgebraError):
    """A map expected to be bijective has deficient rank."""


class InvalidWitness(AlgebraError):
    """A supplied witness fails its defining conditions."""


class MalformedCertificate(Exception):
    """A certificate JSON document is structurally invalid."""


class UnknownFamily(ValueError):
    """Unknown instance-generator family name."""


class NotApplicable(AlgebraError):
    """A specialized reduction does not apply to the given input."""
