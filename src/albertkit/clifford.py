"""Arf triviality by formula, and the rank-64 check for the map induced on
the Clifford algebra of the Albert form.

No Clifford algebra is built.  The center of the even Clifford algebra of a
nonsingular form of even dimension n is F[X]/(X^2 - pX - q), and (p, q) is
read off the bases that forms.py builds (Elman, Karpenko, Merkurjev, The
Algebraic and Geometric Theory of Quadratic Forms, ch. II; Lam, GSM 67,
ch. V).  The rank check computes in M_2(Cor), on the even and odd pairs of
corestriction.f_product.
"""

from __future__ import annotations

import math

from . import linalg
from .corestriction import StructureAlgebra, TensorElem, broken_relation, cor_f_basis, f_product
from .errors import AlgebraError, InternalContradiction, RankDeficient, RelationViolation
from .f2poly import F2Poly
from .fields import _DEFAULT_REDUCTION, FiniteField, RationalField, RationalFunctionField
from .forms import orthogonalize, symplectic_pairs


def arf_trivial(form):
    """Whether the discriminant/Arf invariant of a nonsingular form is trivial.

    The center of the even Clifford algebra is spanned by 1 and omega, with
    omega^2 = q + p omega:
    - outside characteristic 2, omega = v_1 ... v_n over an orthogonal basis;
      the v_i anticommute, so p = 0 and q = (-1)^(n(n-1)/2) prod phi(v_i);
    - in characteristic 2, omega = sum u_i g_i over symplectic pairs with
      b(u_i, g_i) = 1; (u g)^2 = u g + phi(u) phi(g) and the summands
      commute, so p = 1 and q = sum phi(u_i) phi(g_i), the Arf invariant.
    Triviality means X^2 - pX - q splits; the certificate is (p, q) and a
    root of it.
    """
    cls = form.classify()
    if not cls.nonsingular:
        raise AlgebraError("Arf invariant needs a nonsingular form")
    if form.n % 2:
        raise AlgebraError("Arf invariant needs an even-dimensional form")
    f = form.field
    if f.char != 2:
        p = f.zero()
        sign = f.from_int((-1) ** (form.n * (form.n - 1) // 2))
        q = math.prod((form.evaluate(v) for v in orthogonalize(form)), start=sign)
    else:
        p = f.one()
        q = sum((form.evaluate(u) * form.evaluate(g) for u, g in symplectic_pairs(form)), f.zero())
    roots = f.monic_quadratic_roots(-p, -q)
    if len(roots) < 2:
        return False, {"p": p, "q": q, "center_split": False}
    r = roots[0]
    if not f.is_zero(r * r - p * r - q):
        raise InternalContradiction("root of X^2 - pX - q fails")
    return True, {"p": p, "q": q, "center_split": True, "root": r}


# ---------------------------------------------------------------------------
# the induced map on the Clifford algebra of the Albert form
# ---------------------------------------------------------------------------


# Primes of about 1000 for reducing Q, and the point t0 taken mod each over
# Q(t).  A reduction loses rank 64 only when p divides the determinant (or
# t0 is one of its roots), so the first prime nearly always keeps it.
_PRIMES = (1009, 1013, 1019, 1021, 1031)
_QT_POINTS = (2, 3, 5, 7, 11)


def _rank_certified(cor, fs, field):
    """Rank over `field` of the 64 monomial images of the f(xi_i) in M_2(Cor).

    The images built in M_2(Cor_E) by each ring map phi of _reductions (see
    _reduced_rows) are phi of those over F, and a ring map never raises the
    rank (a minor that is nonzero after it is nonzero before), so rank 64 at
    one map proves rank 64.  Exact elimination over F is the last resort.
    """
    for E, phi in _reductions(field):
        rows = _reduced_rows(cor, fs, E, phi)
        if rows is not None and linalg.rank(rows, E, 64) == 64:
            return 64
    return linalg.rank(_monomial_rows(cor, fs), field, 64)


def _reductions(field):
    """(E, phi) for each ring map phi from `field` to a finite field E to try.

    phi is defined on a subring and returns None outside it, where a
    denominator vanishes.  A finite field maps to itself by the identity, Q to
    F_p for each p in _PRIMES, and F(t) to E by t -> t0 for the (E, lift, t0)
    of _points.  Other fields have none.
    """
    if isinstance(field, FiniteField):
        yield field, lambda x: x
    elif isinstance(field, RationalField):
        for p in _PRIMES:
            E = FiniteField(p)
            yield E, _mod_p(E)
    elif isinstance(field, RationalFunctionField):
        for E, lift, t0 in _points(field.base):
            yield E, _at_point(E, lift, t0)


def _mod_p(E):
    """Q -> F_p on the fractions whose denominator p does not divide."""
    p = E.p

    def phi(x):
        den = x.denominator % p
        return None if den == 0 else E.from_int(x.numerator * pow(den, -1, p))

    return phi


def _at_point(E, lift, t0):
    """F(t) -> E by t -> t0, with `lift` on the coefficients."""

    def value(poly):
        out = E.zero()
        if isinstance(poly, F2Poly):  # Horner's rule over the bits, top first
            one = lift(poly.base.one())
            for bit in bin(poly.bits)[2:]:
                out = out * t0 + one if bit == "1" else out * t0
            return out
        for c in reversed(poly.coeffs):
            c = lift(c)
            if c is None:
                return None
            out = out * t0 + c
        return out

    def phi(x):
        num, den = value(x.num), value(x.den)
        if num is None or den is None or not den:
            return None
        return num / den

    return phi


def _points(base):
    """(E, lift, t0) for each point t = t0 of F(t) to try; lift maps base into E.

    Over Q: t0 in _QT_POINTS, one for each prime of _PRIMES, in F_p.  Over a
    finite base: its elements and then, over a prime field F_p, one point of
    each Frobenius orbit of degree k in FiniteField(p, k), for every k with a
    default modulus.  The entries then have coefficients in F_p, so
    conjugate points give conjugate matrices of equal rank, and the points of
    a proper subfield were tried before.  Over F_2 the points of F_2 and F_4
    are the roots of the units t, t + 1 and t^2 + t + 1 of the char-2
    families, where their Clifford matrices can lose rank; the points of F_8
    avoid them all.
    """
    if isinstance(base, RationalField):
        for p, t0 in zip(_PRIMES, _QT_POINTS):
            E = FiniteField(p)
            yield E, _mod_p(E), E.from_int(t0)
        return
    if not isinstance(base, FiniteField):
        return
    for t0 in base.elements():
        yield base, base.coerce, t0
    if base.k != 1:
        return
    p = base.p
    for k in sorted(k for q, k in _DEFAULT_REDUCTION if q == p):
        E = FiniteField(p, k)

        def lift(c, E=E):
            return E.from_int(c.coeffs[0])

        seen = set()
        for t0 in E.elements():
            orbit = [t0]
            while (nxt := E.frobenius(orbit[-1])) != t0:
                orbit.append(nxt)
            if len(orbit) == k and t0 not in seen:
                seen.update(orbit)
                yield E, lift, t0


def _apply(phi, values):
    """The tuple of phi's values, or None when phi is undefined at one of them."""
    out = tuple(map(phi, values))
    return None if any(v is None for v in out) else out


def _reduced_rows(cor, fs, E, phi):
    """The monomial rows (see _monomial_rows) of Cor reduced by phi, or None.

    Cor_E has phi of Cor's structure constants and unit, and the reduced
    f(xi_i) are the pairs of phi of their coordinates.  None when phi is
    undefined at one of them.
    """
    structure = []
    for row in cor.structure:
        out_row = []
        for entry in row:
            values = _apply(phi, [c for _, c in entry])
            if values is None:
                return None
            out_row.append(tuple((m, v) for (m, _), v in zip(entry, values) if v))
        structure.append(tuple(out_row))
    unit = _apply(phi, cor.unit_coords)
    if unit is None:
        return None
    cor_E = StructureAlgebra(E, tuple(structure), unit)
    fs_E = []
    for f in fs:
        entries = [_apply(phi, x.coords) for x in f]
        if None in entries:
            return None
        fs_E.append(tuple(TensorElem(cor_E, coords) for coords in entries))
    return _monomial_rows(cor_E, fs_E)


def _monomial_rows(alg, fs):
    """The 64 coordinates over `alg` of each monomial image, in increasing mask order.

    The image of e_S is the product of the f(xi_i), i in S, in increasing
    order: e_mask = f_i * e_rest with i below every index of rest.  It is
    the pair (a, b) of f_product, even or odd with the popcount of the
    mask, and its row is a|0|0|b or 0|a|b|0: the entries of
    diag(a, b) or [[0, a], [b, 0]] in row order.
    """
    one, zero = alg.one(), alg.zero().coords
    images = [(one, one)]
    for mask in range(1, 64):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        images.append(fs[i] if rest == 0 else f_product(fs[i], images[rest]))
    rows = []
    for mask, (a, b) in enumerate(images):
        if mask.bit_count() % 2:
            rows.append(zero + a.coords + b.coords + zero)
        else:
            rows.append(a.coords + zero + zero + b.coords)
    return rows


def clifford_iso_check(ad, cor):
    """Dimension-count bijectivity of the induced Clifford map onto M_2(Cor).

    Over F and exactly: expresses the f(xi_i) in Cor (the check that f lands
    in M_2(Cor)) and verifies the 21 defining relations (see
    broken_relation).  Each f(xi_i) is the odd pair (eta_i, xi_i), so the
    even monomials land block-diagonally and the odd ones off the diagonal
    by construction.  The map xi -> f(xi) then extends multiplicatively to
    the 64 monomials, and the images have rank 64 in the 64-dimensional
    F-space M_2(Cor) when the map is bijective.  _rank_certified takes that
    rank in Cor reduced at a point, with exact elimination over F as the
    last resort.  Products of elements of Cor stay in Cor
    (build_corestriction verified closure), so no image needs its own
    membership check.
    """
    F = ad.Q.ring.base
    fs = cor_f_basis(ad, cor)
    if fs is None:
        raise RelationViolation("image entry leaves the fixed algebra")
    broken = broken_relation(ad.form, cor, fs)
    if broken is not None:
        raise RelationViolation(broken)
    rank = _rank_certified(cor, fs, F)
    if rank != 64:
        raise RankDeficient("Clifford image has rank %d" % rank)
    return {"rank": rank, "monomials": 64}
