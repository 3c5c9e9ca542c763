"""Quaternion algebras (E/D, a) over an exact scalar domain D.

The domain is a field (possibly a quadratic extension playing the role of
K) or the split algebra F x F, in which case the construction is the pair
of component quaternion algebras.  Elements have four coordinates over the
basis (1, e, z, ez) with e^2 = alpha e + beta, z^2 = a and z l = iota(l) z.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import linalg
from .errors import (
    AlgebraError,
    BudgetExhausted,
    InvalidWitness,
    NoSolutionProven,
    NotEtale,
    ZeroParameter,
)
from .etale import EtaleQuadratic, SplitAlgebra
from .forms import QuadraticForm, hyperbolic_partner, line_point
from .isotropy import isotropy
from .search import DEFAULT_HEIGHT, SUBALGEBRA_CANDIDATES, Budget, scalar_candidates

BASIS_NAMES = ("1", "e", "z", "ez")


class QuaternionAlgebra:
    """(E/D, a) by the closed product formula _mul_coords.

    The constructor checks what the theory needs: `a` invertible and E =
    D[e]/(e^2 - alpha e - beta) etale.  Associativity and the unit law are
    polynomial identities over Z in (alpha, beta, a), so they hold over every
    commutative ring; tests/test_quaternion.py proves them once on a grid,
    and _check_associative is kept for tests only.
    """

    def __init__(self, domain, alpha, beta, a):
        self.domain = domain
        self.alpha = domain.coerce(alpha)
        self.beta = domain.coerce(beta)
        self.a = domain.coerce(a)
        if not self._invertible(self.a):
            raise ZeroParameter("slot parameter a must be invertible")
        disc = self.alpha * self.alpha + 4 * self.beta
        if domain.char == 2:
            if not self._invertible(self.alpha):
                raise NotEtale("alpha must be invertible in characteristic 2")
        elif not self._invertible(disc):
            raise NotEtale("alpha^2 + 4 beta must be invertible")

    def _invertible(self, x):
        if isinstance(self.domain, SplitAlgebra):
            return self.domain.is_invertible(x)
        return not self.domain.is_zero(x)

    # -- E = D[e] helpers (pairs (x0, x1) meaning x0 + x1 e) -------------------
    def _emul(self, x, y):
        bb = x[1] * y[1]
        return (x[0] * y[0] + self.beta * bb, x[0] * y[1] + x[1] * y[0] + self.alpha * bb)

    def _eiota(self, x):
        return (x[0] + self.alpha * x[1], -x[1])

    def element(self, coords):
        return QuatElem(self, tuple(self.domain.coerce(c) for c in coords))

    def zero(self):
        z = self.domain.zero()
        return self.element((z, z, z, z))

    def one(self):
        z = self.domain.zero()
        return self.element((self.domain.one(), z, z, z))

    def basis(self):
        z = self.domain.zero()
        o = self.domain.one()
        return [
            self.element((o, z, z, z)),
            self.element((z, o, z, z)),
            self.element((z, z, o, z)),
            self.element((z, z, z, o)),
        ]

    @functools.cached_property
    def table(self):
        """table[i][j]: the coordinates of b_i b_j, built on first use (by a
        tensor product).  Closed form of _mul_coords on the basis, from
        e^2 = alpha e + beta, z^2 = a and z e = (alpha - e) z."""
        o, n = self.domain.one(), self.domain.zero()
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

    def _check_associative(self):
        basis = self.basis()
        one = self.one()
        for b in basis:
            if (one * b).coords != b.coords or (b * one).coords != b.coords:
                raise AlgebraError("unit law fails")
        for x, y, z in itertools.product(basis, repeat=3):
            if ((x * y) * z).coords != (x * (y * z)).coords:
                raise AlgebraError("associativity fails on basis triple")

    def random_element(self, rng, size=5):
        return self.element(tuple(self.domain.random_element(rng, size) for _ in range(4)))

    def __eq__(self, other):
        return (
            isinstance(other, QuaternionAlgebra)
            and other.domain == self.domain
            and other.alpha == self.alpha
            and other.beta == self.beta
            and other.a == self.a
        )

    def __hash__(self):
        return hash(("quat", self.domain, self.alpha, self.beta, self.a))

    def __repr__(self):
        d = self.domain
        fmt = d.format_element
        return "Quaternion(%s; e^2=%s*e+%s, z^2=%s)" % (
            getattr(d, "name", "?"),
            fmt(self.alpha),
            fmt(self.beta),
            fmt(self.a),
        )


class QuatElem:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords

    def _check(self, other):
        if isinstance(other, int):
            return self.algebra.element((other, 0, 0, 0))
        if isinstance(other, QuatElem) and other.algebra == self.algebra:
            return other
        raise AlgebraError("mixed quaternion contexts")

    def __add__(self, other):
        other = self._check(other)
        return QuatElem(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return QuatElem(self.algebra, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if isinstance(other, QuatElem):
            if other.algebra != self.algebra:
                raise AlgebraError("mixed quaternion contexts")
            return QuatElem(self.algebra, self.algebra._mul_coords(self.coords, other.coords))
        # scalar action
        c = self.algebra.domain.coerce(other)
        return QuatElem(self.algebra, tuple(a * c for a in self.coords))

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c):
        c = self.algebra.domain.coerce(c)
        return QuatElem(self.algebra, tuple(a * c for a in self.coords))

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

    def is_zero(self):
        d = self.algebra.domain
        return all(d.is_zero(c) for c in self.coords)

    def is_scalar(self):
        d = self.algebra.domain
        return all(d.is_zero(c) for c in self.coords[1:])

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._check(other)
        return (
            isinstance(other, QuatElem)
            and other.algebra == self.algebra
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash(("quatelem", self.coords))

    def __repr__(self):
        fmt = self.algebra.domain.format_element
        parts = []
        for name, c in zip(BASIS_NAMES, self.coords):
            if self.algebra.domain.is_zero(c):
                continue
            cs = fmt(c)
            parts.append(cs if name == "1" else "(%s)%s" % (cs, name))
        return " + ".join(parts) if parts else "0"


def make_quaternion(E, a):
    """Quaternion algebra from an etale quadratic algebra E/D and a unit a.

    E is an EtaleQuadratic over the scalar domain; the split case embeds as
    alpha = 1, beta = 0 (E = D x D presented by the polynomial x^2 - x).
    """
    if isinstance(E, EtaleQuadratic):
        if E.kind == "field":
            return QuaternionAlgebra(E.base, E.alpha, E.beta, a)
        return QuaternionAlgebra(E.base, E.base.one(), E.base.zero(), a)
    raise AlgebraError("make_quaternion expects an EtaleQuadratic")


def norm_form(Q):
    """The reduced norm as a four-dimensional form over the (field) domain."""
    d = Q.domain
    if isinstance(d, SplitAlgebra):
        raise AlgebraError("norm form needs a field domain")
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
    nf = norm_form(Q)
    verdict = isotropy(nf, height=height)
    if verdict.is_isotropic:
        x = Q.element(verdict.witness)
        if x.is_zero() or not Q.domain.is_zero(x.nrd()):
            raise InvalidWitness("zero-divisor conversion failed")
        return SplitVerdict("split", x, verdict.method)
    if verdict.is_anisotropic:
        return SplitVerdict("division", None, verdict.method)
    return SplitVerdict("unknown", None, verdict.method)


# ---------------------------------------------------------------------------
# subalgebra witnesses for the equivalence conditions
# ---------------------------------------------------------------------------


def validate_disjoint_witness(Q, ext, x, etale_required):
    """Check that x generates a quadratic F-algebra linearly disjoint from K.

    Conditions: Trd(x) and Nrd(x) lie in F.1, the pair (1, x) is K-linearly
    independent, and for the etale flavor the algebra F[x] is separable.
    Raises InvalidWitness with the failed condition.
    """
    F = ext.base
    trd = x.trd()
    nrd = x.nrd()
    p = ext.in_base(trd)
    q = ext.in_base(nrd)
    if p is None:
        raise InvalidWitness("Trd(x) is not in F")
    if q is None:
        raise InvalidWitness("Nrd(x) is not in F")
    if not _k_independent(Q, ext, x):
        raise InvalidWitness("(1, x) is not K-linearly independent")
    if etale_required:
        if F.char == 2:
            if F.is_zero(p):
                raise InvalidWitness("Trd(x) = 0: F[x] inseparable in characteristic 2")
        else:
            if F.is_zero(p * p - 4 * q):
                raise InvalidWitness("discriminant vanishes: F[x] not etale")
    return {"trd": p, "nrd": q}


def _k_independent(Q, ext, x):
    if ext.kind == "field":
        return not x.is_scalar()
    # split: componentwise independence of (1, x_i)
    comp1 = [c.a for c in x.coords]
    comp2 = [c.b for c in x.coords]
    base = ext.base
    return not all(base.is_zero(c) for c in comp1[1:]) and not all(
        base.is_zero(c) for c in comp2[1:]
    )


def find_disjoint_quadratic_subalgebra(
    Q, ext, etale_required=True, height=4, max_candidates=SUBALGEBRA_CANDIDATES
):
    """Search for a quadratic F-subalgebra of Q linearly disjoint from K.

    A bounded-height coordinate search.  Returns the witness element or
    raises BudgetExhausted (a semi-decision, not a proof) whose `searched`
    counts the candidates drawn, the one over the limit included.
    """
    budget = Budget(max_candidates)
    for x in budget.take(_candidate_elements(Q, ext, height)):
        try:
            validate_disjoint_witness(Q, ext, x, etale_required)
            return x
        except InvalidWitness:
            continue
    raise BudgetExhausted("no disjoint quadratic subalgebra found", searched=budget.spent)


def _candidate_elements(Q, ext, height):
    if ext.kind == "field":
        pool = list(scalar_candidates(Q.domain, height))
        for coords in itertools.product(pool, repeat=4):
            yield Q.element(coords)
    else:
        d = Q.domain
        pool = list(scalar_candidates(ext.base, height))
        for comps in itertools.product(pool, repeat=8):
            coords = tuple(d.pair(comps[2 * i], comps[2 * i + 1]) for i in range(4))
            yield Q.element(coords)


def embed_quadratic_algebra(Q, p, q, height=DEFAULT_HEIGHT):
    """Find x in Q with Trd(x) = p and Nrd(x) = q (p, q in the domain field).

    The trace condition is linear; eliminating it leaves a three-variable
    quadric solved through the isotropy machinery on its homogenization,
    with a hyperbolic correction when the witness lies in the hyperplane
    at infinity.
    """
    d = Q.domain
    if isinstance(d, SplitAlgebra):
        raise AlgebraError("embedding search needs a field domain")
    p = d.coerce(p)
    q = d.coerce(q)
    if d.char == 2:
        # Trd = alpha c1 = p
        c1 = p / Q.alpha
        free_idx = [0, 2, 3]
        fixed = {1: c1}
    else:
        free_idx = [1, 2, 3]
        fixed = {}

    def coords_from(vals):
        c = [d.zero()] * 4
        for idx, v in zip(free_idx, vals):
            c[idx] = v
        for idx, v in fixed.items():
            c[idx] = v
        if d.char != 2:
            c[0] = (p - Q.alpha * c[1]) / 2
        return tuple(c)

    # homogenize: Nrd(coords(v)) - q = Psi(v, y) at y = 1
    # build the 4-variable quadratic form in (v1, v2, v3, y)
    zero = d.zero()

    def nrd_of(vals, y):
        c = [zero] * 4
        for idx, v in zip(free_idx, vals):
            c[idx] = v
        for idx, v in fixed.items():
            c[idx] = v * y
        if d.char != 2:
            c[0] = (p * y - Q.alpha * c[1]) / 2
        x = Q.element(tuple(c))
        return x.nrd() - q * y * y

    psi = QuadraticForm.from_map(d, lambda v: nrd_of(v[:3], v[3]), linalg.units(d, 4))
    verdict = isotropy(psi, height=height)
    if verdict.is_anisotropic:
        raise NoSolutionProven("no element with the requested trace and norm")
    if not verdict.is_isotropic:
        raise BudgetExhausted("quadric search undecided")
    wit = verdict.witness
    if d.is_zero(wit[3]):
        wit = _move_off_hyperplane(psi, wit)
        if wit is None:
            raise BudgetExhausted("no affine point found on the quadric")
    y = wit[3]
    vals3 = tuple(c / y for c in wit[:3])
    x = Q.element(coords_from(vals3))
    if x.trd() != p or x.nrd() != q:
        raise AlgebraError("embedding verification failed")
    return x


def _move_off_hyperplane(psi, u):
    """From an isotropic u with last coordinate 0, reach one with y != 0.

    Each x = zeta + k, for zeta the hyperbolic partner of u and k orthogonal
    to u, has polar(u, x) = 1; its line point x - q(x) u is isotropic with
    the same last coordinate as x.
    """
    zeta = hyperbolic_partner(psi, u)
    if zeta is None:
        return None
    for k in [(psi.field.zero(),) * psi.n] + psi.orthogonal_complement([u]):
        x = tuple(a + b for a, b in zip(zeta, k))
        if not psi.field.is_zero(x[3]):
            return line_point(psi, u, x)
    return None
