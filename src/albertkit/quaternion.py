"""Quaternion algebras (E/D, a) over an exact scalar ring D.

The ring is a field (possibly a quadratic extension playing the role of
K) or the split algebra F x F, in which case the construction is the pair
of component quaternion algebras.  A QuaternionAlgebra is a 4-dimensional
Algebra (see algebra.py): its elements have four coordinates over the
basis (1, e, z, ez) with e^2 = alpha e + beta, z^2 = a and z l = iota(l) z.

Over K, Q names the whole tower: K is Q.ring and F is Q.ring.base, so the
subalgebra witnesses below take Q alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .algebra import Algebra, AlgebraElem
from .errors import (
    BudgetExhausted,
    InvalidWitness,
    NotEtale,
    SplitK,
    ZeroParameter,
)
from .etale import SplitAlgebra
from .fields import Canonical
from .forms import QuadraticForm
from .isotropy import isotropy
from .search import DEFAULT_HEIGHT, HARNESS_SUBALGEBRA_CANDIDATES, Budget, scalar_candidates

BASIS_NAMES = ("1", "e", "z", "ez")


class QuatElem(AlgebraElem):
    """Element of a QuaternionAlgebra: its product and reduced trace and norm."""

    __slots__ = ()
    context = "quaternion"

    def __mul__(self, other):
        other = self._check(other)
        return QuatElem(self.algebra, self.algebra._mul_coords(self.coords, other.coords))

    def conjugate(self):
        x = self.coords
        alg = self.algebra
        return QuatElem(alg, (x[0] + alg.alpha * x[1], -x[1], -x[2], -x[3]))

    def trd(self):
        return 2 * self.coords[0] + self.algebra.alpha * self.coords[1]

    def nrd(self):
        x = self.coords
        alg = self.algebra
        n1 = x[0] * x[0] + alg.alpha * x[0] * x[1] - alg.beta * x[1] * x[1]
        n2 = x[2] * x[2] + alg.alpha * x[2] * x[3] - alg.beta * x[3] * x[3]
        return n1 - alg.a * n2


class QuaternionAlgebra(Algebra, metaclass=Canonical):
    """(E/D, a) by the closed product formula _mul_coords.

    The constructor checks what the theory needs: `a` invertible and E =
    D[e]/(e^2 - alpha e - beta) etale.  Associativity and the unit law are
    polynomial identities over Z in (alpha, beta, a), so they hold over every
    commutative ring; tests/test_quaternion.py proves them once on a grid.
    """

    dim, element = 4, QuatElem
    _value = ("ring", "alpha", "beta", "a")

    def __init__(self, ring, alpha, beta, a):
        super().__init__(ring, (ring.one(),) + (ring.zero(),) * 3)
        self.alpha = ring.coerce(alpha)
        self.beta = ring.coerce(beta)
        self.a = ring.coerce(a)
        if not ring.is_invertible(self.a):
            raise ZeroParameter("slot parameter a must be invertible")
        disc = self.alpha * self.alpha + 4 * self.beta
        if ring.char == 2:
            if not ring.is_invertible(self.alpha):
                raise NotEtale("alpha must be invertible in characteristic 2")
        elif not ring.is_invertible(disc):
            raise NotEtale("alpha^2 + 4 beta must be invertible")

    def basis_name(self, idx):
        return BASIS_NAMES[idx]

    # -- E = D[e] helpers (pairs (x0, x1) meaning x0 + x1 e) -------------------
    def _emul(self, x, y):
        bb = x[1] * y[1]
        return (x[0] * y[0] + self.beta * bb, x[0] * y[1] + x[1] * y[0] + self.alpha * bb)

    def _eiota(self, x):
        return (x[0] + self.alpha * x[1], -x[1])

    @functools.cached_property
    def table(self):
        """table[i][j]: the coordinates of b_i b_j, built on first use (by a
        tensor product).  Closed form of _mul_coords on the basis, from
        e^2 = alpha e + beta, z^2 = a and z e = (alpha - e) z."""
        o, n = self.ring.one(), self.ring.zero()
        alpha, beta, a = self.alpha, self.beta, self.a
        return (
            ((o, n, n, n), (n, o, n, n), (n, n, o, n), (n, n, n, o)),
            ((n, o, n, n), (beta, alpha, n, n), (n, n, n, o), (n, n, beta, alpha)),
            ((n, n, o, n), (n, n, alpha, -o), (a, n, n, n), (a * alpha, -a, n, n)),
            ((n, n, n, o), (n, n, -beta, n), (n, a, n, n), (-(beta * a), n, n, n)),
        )

    def _mul_coords(self, xc, yc):
        l1, l2 = (xc[0], xc[1]), (xc[2], xc[3])
        m1, m2 = (yc[0], yc[1]), (yc[2], yc[3])
        # (l1 + l2 z)(m1 + m2 z) = l1 m1 + a l2 iota(m2)  +  (l1 m2 + l2 iota(m1)) z
        p1 = self._emul(l1, m1)
        p2 = self._emul(l2, self._eiota(m2))
        q1 = self._emul(l1, m2)
        q2 = self._emul(l2, self._eiota(m1))
        return (
            p1[0] + self.a * p2[0],
            p1[1] + self.a * p2[1],
            q1[0] + q2[0],
            q1[1] + q2[1],
        )

    def random_element(self, rng, size=5):
        return self.elem(tuple(self.ring.random_element(rng, size) for _ in range(4)))

    def __repr__(self):
        d = self.ring
        fmt = d.format_element
        return "Quaternion(%s; e^2=%s*e+%s, z^2=%s)" % (
            getattr(d, "name", "?"),
            fmt(self.alpha),
            fmt(self.beta),
            fmt(self.a),
        )


def norm_form(Q):
    """The reduced norm as a four-dimensional form over Q's ring, which may
    be F x F (albert_form reads the form's Gram matrix there)."""
    d = Q.ring
    z = d.zero()
    rows = [
        [d.one(), Q.alpha, z, z],
        [z, -Q.beta, z, z],
        [z, z, -Q.a, -Q.a * Q.alpha],
        [z, z, z, Q.a * Q.beta],
    ]
    return QuadraticForm(d, rows)


@dataclass(frozen=True)
class SplitVerdict:
    status: str  # "split" | "division" | "unknown"
    zero_divisor: object = None
    method: str = ""

    @property
    def decided(self):
        return self.status != "unknown"


def is_split(Q, height=DEFAULT_HEIGHT):
    """Split test: the norm form is isotropic iff the algebra is split.

    An isotropy witness is converted to an explicit zero divisor.
    """
    if isinstance(Q.ring, SplitAlgebra):
        raise SplitK("the split test needs a field, not the split algebra")
    nf = norm_form(Q)
    verdict = isotropy(nf, height=height)
    if verdict.is_isotropic:
        x = Q.elem(verdict.witness)
        if x.is_zero() or not Q.ring.is_zero(x.nrd()):
            raise InvalidWitness("zero-divisor conversion failed")
        return SplitVerdict("split", x, verdict.method)
    if verdict.is_anisotropic:
        return SplitVerdict("division", None, verdict.method)
    return SplitVerdict("unknown", None, verdict.method)


# ---------------------------------------------------------------------------
# subalgebra witnesses for the equivalence conditions
# ---------------------------------------------------------------------------


def validate_disjoint_witness(Q, x, etale_required):
    """Check that x generates a quadratic F-algebra linearly disjoint from K.

    Conditions: Trd(x) and Nrd(x) lie in F.1, the pair (1, x) is K-linearly
    independent, and for the etale flavor the algebra F[x] is separable.
    Raises InvalidWitness with the failed condition.
    """
    K = Q.ring
    F = K.base
    p = K.in_base(x.trd())
    if p is None:
        raise InvalidWitness("Trd(x) is not in F")
    q = K.in_base(x.nrd())
    if q is None:
        raise InvalidWitness("Nrd(x) is not in F")
    # c 1 + d x = 0 forces c = d = 0 iff x's coordinates off 1 generate K
    if not K.generates_unit_ideal(x.coords[1:]):
        raise InvalidWitness("(1, x) is not K-linearly independent")
    if etale_required:
        if F.char == 2:
            if F.is_zero(p):
                raise InvalidWitness("Trd(x) = 0: F[x] inseparable in characteristic 2")
        else:
            if F.is_zero(p * p - 4 * q):
                raise InvalidWitness("discriminant vanishes: F[x] not etale")
    return {"trd": p, "nrd": q}


def find_disjoint_quadratic_subalgebra(
    Q, etale_required=True, height=1, max_candidates=HARNESS_SUBALGEBRA_CANDIDATES
):
    """Search for a quadratic F-subalgebra of Q linearly disjoint from K.

    The harness's bounded-height coordinate search.  Returns the witness
    element or raises BudgetExhausted (a semi-decision, not a proof) whose
    `searched` counts the candidates drawn, the one over the limit included.
    """
    budget = Budget(max_candidates)
    for x in budget.take(_candidate_elements(Q, height)):
        try:
            validate_disjoint_witness(Q, x, etale_required)
            return x
        except InvalidWitness:
            continue
    raise BudgetExhausted("no disjoint quadratic subalgebra found", searched=budget.spent)


def _candidate_elements(Q, height):
    K = Q.ring
    if K.kind == "field":
        pool = list(scalar_candidates(K, height))
        for coords in itertools.product(pool, repeat=4):
            yield Q.elem(coords)
    else:
        pool = list(scalar_candidates(K.base, height))
        for comps in itertools.product(pool, repeat=8):
            coords = tuple(K.pair(comps[2 * i], comps[2 * i + 1]) for i in range(4))
            yield Q.elem(coords)
