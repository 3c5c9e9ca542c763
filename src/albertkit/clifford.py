"""Clifford algebras by monomial rewriting, Arf triviality, and the rank-64
check for the map induced on the Clifford algebra of the Albert form.

Monomials e_S are indexed by subsets of the basis; products reduce to the
increasing-index normal form via e_i^2 = phi(e_i) and
e_j e_i = polar(e_i, e_j) - e_i e_j for i < j, which degenerates correctly
in characteristic 2.
"""

from __future__ import annotations

import functools

from . import linalg
from .algebra import m2_add, m2_equals_scalar, m2_mul
from .corestriction import StructureAlgebra, TensorElem, cor_f_basis
from .errors import (
    AlgebraError,
    DimensionCap,
    InternalContradiction,
    RankDeficient,
    RelationViolation,
)
from .f2poly import F2Poly
from .fields import _DEFAULT_REDUCTION, FiniteField, RationalField, RationalFunctionField
from .forms import orthogonalize, symplectic_pairs


class CliffordAlgebra:
    def __init__(self, form):
        if form.n > 6:
            raise DimensionCap("Clifford construction capped at dimension 6")
        self.form = form
        self.field = form.field
        self.n = form.n
        self.dim = 1 << form.n
        self._mul_cache = {}

    # -- elements are dicts {mask: coeff}; zero coeffs are never stored ------
    def zero(self):
        return CliffordElem(self, {})

    def one(self):
        return CliffordElem(self, {0: self.field.one()})

    def generator(self, i):
        return CliffordElem(self, {1 << i: self.field.one()})

    def vector(self, coords):
        f = self.field
        data = {}
        for i, c in enumerate(coords):
            c = f.coerce(c)
            if not f.is_zero(c):
                data[1 << i] = c
        return CliffordElem(self, data)

    def elem(self, data):
        f = self.field
        return CliffordElem(self, {m: f.coerce(c) for m, c in data.items() if not f.is_zero(c)})

    def basis_masks(self, even_only=False):
        return [m for m in range(self.dim) if not even_only or bin(m).count("1") % 2 == 0]

    # -- monomial multiplication ----------------------------------------------
    def _insert(self, word, k):
        """Multiply the monomial `word` (sorted tuple) by e_k on the right."""
        f = self.field
        if not word or word[-1] < k:
            return {word + (k,): f.one()}
        j = word[-1]
        if j == k:
            val = self.form.upper[k][k]
            if f.is_zero(val):
                return {}
            return {word[:-1]: val}
        out = {}
        pol = self.form.polar_matrix()[k][j]
        if not f.is_zero(pol):
            out[word[:-1]] = pol
        for t, c in self._insert(word[:-1], k).items():
            key = t + (j,)
            prev = out.get(key)
            nc = -c if prev is None else prev - c
            if f.is_zero(nc):
                out.pop(key, None)
            else:
                out[key] = nc
        return out

    def mul_masks(self, ma, mb):
        cached = self._mul_cache.get((ma, mb))
        if cached is not None:
            return cached
        f = self.field
        terms = {_mask_to_word(ma): f.one()}
        for k in _mask_to_word(mb):
            new = {}
            for word, c in terms.items():
                for w2, c2 in self._insert(word, k).items():
                    acc = new.get(w2)
                    val = c * c2 if acc is None else acc + c * c2
                    if f.is_zero(val):
                        new.pop(w2, None)
                    else:
                        new[w2] = val
            terms = new
        out = {_word_to_mask(w): c for w, c in terms.items()}
        self._mul_cache[(ma, mb)] = out
        return out


def _mask_to_word(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _word_to_mask(word):
    out = 0
    for i in word:
        out |= 1 << i
    return out


class CliffordElem:
    __slots__ = ("algebra", "data")

    def __init__(self, algebra, data):
        self.algebra = algebra
        self.data = data

    def _check(self, other):
        if isinstance(other, CliffordElem) and other.algebra is self.algebra:
            return other
        raise AlgebraError("mixed Clifford contexts")

    def __add__(self, other):
        other = self._check(other)
        f = self.algebra.field
        data = dict(self.data)
        for m, c in other.data.items():
            val = data.get(m)
            val = c if val is None else val + c
            if f.is_zero(val):
                data.pop(m, None)
            else:
                data[m] = val
        return CliffordElem(self.algebra, data)

    def __neg__(self):
        return CliffordElem(self.algebra, {m: -c for m, c in self.data.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        if not isinstance(other, CliffordElem):
            c = self.algebra.field.coerce(other)
            if self.algebra.field.is_zero(c):
                return self.algebra.zero()
            return CliffordElem(self.algebra, {m: v * c for m, v in self.data.items()})
        other = self._check(other)
        f = self.algebra.field
        out = {}
        for ma, ca in self.data.items():
            for mb, cb in other.data.items():
                cab = ca * cb
                for m, c in self.algebra.mul_masks(ma, mb).items():
                    val = out.get(m)
                    val = cab * c if val is None else val + cab * c
                    if f.is_zero(val):
                        out.pop(m, None)
                    else:
                        out[m] = val
        return CliffordElem(self.algebra, out)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.data

    def coeff(self, mask):
        return self.data.get(mask, self.algebra.field.zero())

    def coordinates(self, masks):
        return tuple(self.coeff(m) for m in masks)

    def __eq__(self, other):
        return (
            isinstance(other, CliffordElem)
            and other.algebra is self.algebra
            and other.data == self.data
        )

    def __repr__(self):
        if not self.data:
            return "0"
        fmt = self.algebra.field.format_element
        parts = []
        for m in sorted(self.data):
            word = "".join("e%d" % i for i in _mask_to_word(m)) or "1"
            parts.append("(%s)%s" % (fmt(self.data[m]), word))
        return " + ".join(parts)


def even_part_masks(C):
    return C.basis_masks(even_only=True)


def center_of_span(C, masks, generators=None):
    """Basis of the centralizer of the generators inside span(masks).

    With the default generators (all degree-2 monomials) and masks the even
    part, this is the center of the even Clifford algebra.
    """
    f = C.field
    if generators is None:
        generators = [
            CliffordElem(C, {(1 << i) | (1 << j): f.one()})
            for i in range(C.n)
            for j in range(i + 1, C.n)
        ]
    rows = []
    all_masks = list(range(C.dim))
    for g in generators:
        cols = []
        for m in masks:
            em = CliffordElem(C, {m: f.one()})
            comm = em * g - g * em
            cols.append([comm.coeff(mm) for mm in all_masks])
        for r in range(C.dim):
            rows.append(tuple(cols[c][r] for c in range(len(masks))))
    kernel = linalg.kernel_basis(rows, f, len(masks))
    out = []
    for coeffs in kernel:
        data = {}
        for c, m in zip(coeffs, masks):
            if not f.is_zero(c):
                data[m] = c
        out.append(CliffordElem(C, data))
    return out


def _central_even_element(C):
    """The distinguished central element of the even part, verified central."""
    form = C.form
    f = C.field
    if f.char != 2:
        basis = orthogonalize(form)
        omega = C.one()
        for v in basis:
            omega = omega * C.vector(v)
    else:
        omega = C.zero()
        for u, g in symplectic_pairs(form):
            omega = omega + C.vector(u) * C.vector(g)
    # verify centrality in the even part on its algebra generators
    for i in range(C.n):
        for j in range(i + 1, C.n):
            g = CliffordElem(C, {(1 << i) | (1 << j): f.one()})
            if not (omega * g - g * omega).is_zero():
                raise InternalContradiction("constructed element is not central")
    if set(omega.data) == {0}:
        raise InternalContradiction("central element degenerated to a scalar")
    return omega


def arf_trivial(form):
    """Whether the discriminant/Arf invariant of a nonsingular form is trivial.

    The center of the even Clifford algebra is F[X]/(X^2 - p X - q) for the
    distinguished central element; triviality means that quadratic splits,
    and the certificate is an explicit nontrivial idempotent.
    """
    cls = form.classify()
    if not cls.nonsingular:
        raise AlgebraError("Arf invariant needs a nonsingular form")
    if form.n % 2:
        raise AlgebraError("Arf invariant needs an even-dimensional form")
    C = CliffordAlgebra(form)
    f = form.field
    omega = _central_even_element(C)
    omega2 = omega * omega
    # express omega^2 = q*1 + p*omega
    pivot = next(m for m in sorted(omega.data) if m != 0)
    p = omega2.coeff(pivot) / omega.data[pivot]
    q = omega2.coeff(0) - p * omega.coeff(0)
    if not (omega2 - omega * p - C.one() * q).is_zero():
        raise InternalContradiction("omega^2 does not lie in span(1, omega)")
    roots = f.monic_quadratic_roots(-p, -q)
    if len(roots) < 2:
        return False, {"p": p, "q": q, "center_split": False}
    r1, r2 = roots[0], roots[1]
    z = (omega - C.one() * r2) * (f.one() / (r1 - r2))
    if not (z * z - z).is_zero():
        raise InternalContradiction("idempotent construction failed")
    return True, {"p": p, "q": q, "center_split": True, "idempotent": z}


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
            E = _reduction_field(p)
            yield E, _mod_p(E)
    elif isinstance(field, RationalFunctionField):
        for E, lift, t0 in _points(field.base):
            yield E, _at_point(E, lift, t0)


@functools.cache
def _reduction_field(p, k=1):
    """The one FiniteField(p, k) that reductions map into.

    A field keeps every element it hands out, and each element refers back to
    it; a field made per check would leave up to p^k elements to the cycle
    collector each time.  The cache holds at most one field per prime of
    _PRIMES and per default modulus.
    """
    return FiniteField(p, k)


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
            E = _reduction_field(p)
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
        E = _reduction_field(p, k)

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
    f(xi_i) have phi of their coordinates as entries.  None when phi is
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
    for M in fs:
        entries = [_apply(phi, e.coords) for row in M for e in row]
        if None in entries:
            return None
        a, b, c, d = (TensorElem(cor_E, coords) for coords in entries)
        fs_E.append(((a, b), (c, d)))
    return _monomial_rows(cor_E, fs_E)


def _monomial_rows(alg, fs):
    """The 64 coordinates over `alg` of each monomial image, in increasing mask order.

    The image of e_S is the product of the f(xi_i), i in S, in increasing
    order: e_mask = e_i * e_rest with i below every index of rest.
    """
    one, zero = alg.one(), alg.zero()
    images = [((one, zero), (zero, one))]
    for mask in range(1, 64):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        images.append(fs[i] if rest == 0 else m2_mul(alg, fs[i], images[rest]))
    return [tuple(c for row in M for entry in row for c in entry.coords) for M in images]


def clifford_iso_check(ad, cor):
    """Dimension-count bijectivity of the induced Clifford map onto M_2(Cor).

    Over F and exactly: expresses the f(xi_i) in Cor (the check that f lands
    in M_2(Cor)), checks that each has zero diagonal, so that the even
    monomials land block-diagonally, and verifies the defining relations.
    The map xi -> f(xi) then extends multiplicatively to the 64 monomials,
    and the images have rank 64 in the 64-dimensional F-space M_2(Cor) when
    the map is bijective.  _rank_certified takes that rank in Cor reduced
    at a point, with exact elimination over F as the last resort.  Products
    of elements of Cor stay in Cor (build_corestriction verified closure),
    so no image needs its own membership check.
    """
    F = ad.ext.base
    n = 6
    fs = cor_f_basis(ad, cor)
    if fs is None:
        raise RelationViolation("image entry leaves the fixed algebra")
    if not all(M[0][0].is_zero() and M[1][1].is_zero() for M in fs):
        raise RelationViolation("f(xi_i) has a nonzero diagonal entry")
    B = ad.form.polar_matrix()
    # defining relations
    for i in range(n):
        sq = m2_mul(cor, fs[i], fs[i])
        if not m2_equals_scalar(cor, sq, ad.form.upper[i][i]):
            raise RelationViolation("f(xi_i)^2 relation fails")
        for j in range(i + 1, n):
            anti = m2_add(m2_mul(cor, fs[i], fs[j]), m2_mul(cor, fs[j], fs[i]))
            if not m2_equals_scalar(cor, anti, B[i][j]):
                raise RelationViolation("anticommutation relation fails")
    rank = _rank_certified(cor, fs, F)
    if rank != 64:
        raise RankDeficient("Clifford image has rank %d" % rank)
    return {"rank": rank, "monomials": 64}
