"""Exception types shared across the toolkit."""


class AlgebraError(Exception):
    """Hard fault: inconsistent contexts or misuse of an algebraic object."""


class NotEtale(AlgebraError):
    """The requested quadratic algebra is not etale (separability fails)."""


class ZeroParameter(AlgebraError):
    """A construction parameter that must be invertible is zero."""


class SplitK(AlgebraError):
    """Operation requires a quadratic field extension, got a split algebra."""


class NoSolutionProven(AlgebraError):
    """An exhaustive search proved that no solution exists."""


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


class ValueNotInF(AlgebraError):
    """A value that must descend to the base field failed to do so."""


class IdentityFails(AlgebraError):
    """The central identity f(xi)^2 = phi(xi) was falsified."""


class RelationViolation(AlgebraError):
    """A Clifford defining relation is not respected by the candidate map."""


class RankDeficient(AlgebraError):
    """A map expected to be bijective has deficient rank."""


class DimensionCap(AlgebraError):
    """Input exceeds a documented dimension cap."""


class InvalidWitness(AlgebraError):
    """A supplied witness fails its defining conditions."""


class MalformedCertificate(Exception):
    """A certificate JSON document is structurally invalid."""


class UnknownFamily(ValueError):
    """Unknown instance-generator family name."""


class NotApplicable(AlgebraError):
    """A specialized reduction does not apply to the given input."""
