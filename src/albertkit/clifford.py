"""Clifford algebras by monomial rewriting, Arf triviality, and the rank-64
check for the map induced on the Clifford algebra of the Albert form.

Monomials e_S are indexed by subsets of the basis; products reduce to the
increasing-index normal form via e_i^2 = phi(e_i) and
e_j e_i = polar(e_i, e_j) - e_i e_j for i < j, which degenerates correctly
in characteristic 2.
"""

from __future__ import annotations

from . import linalg
from .errors import (
    AlgebraError,
    DimensionCap,
    InternalContradiction,
    RankDeficient,
    RelationViolation,
)
from .fields import _DEFAULT_REDUCTION, FiniteField, RationalFunctionField
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


def even_clifford_binary(form):
    """(trace, norm) of zeta = e1 e2 inside C_0 of a binary nonsingular form.

    The even Clifford algebra of a binary form is the quadratic etale
    algebra F[X]/(X^2 - trace*X + norm).
    """
    if form.n != 2:
        raise AlgebraError("binary form expected")
    f = form.field
    C = CliffordAlgebra(form)
    zeta = CliffordElem(C, {0b11: f.one()})
    z2 = zeta * zeta
    p = z2.coeff(0b11)
    q = -z2.coeff(0)
    if not (z2 - zeta * p + C.one() * q).is_zero():
        raise InternalContradiction("zeta^2 is not in span(1, zeta)")
    return p, q


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


def _rank_certified(rows, field, target):
    """Rank of `rows` over `field`, or `target` once a cheap bound certifies it.

    Over a function field F(t) the entries are specialized at points t = t0
    where no denominator vanishes.  Specialization is a ring map, so the rank
    at t0 never exceeds the exact rank: a rank of at least `target` at some
    point proves the exact rank is at least `target` (callers pass the number
    of rows, so it is then exactly `target`).  The points are those of
    _specialization_points; exact elimination over F(t) is the last resort.
    """
    ncols = len(rows[0])
    if isinstance(field, RationalFunctionField):
        for E, t0, lift in _specialization_points(field.base):
            spec = _specialize(rows, E, t0, lift)
            if spec is not None and linalg.rank(spec, E, ncols) >= target:
                return target
    return linalg.rank(rows, field, ncols)


def _specialization_points(base):
    """(field, t0, lift) for each point t = t0 to try; lift maps base into field.

    Over an infinite base: t = 2, 3, 5, 7, 11.  Over a finite base: its
    elements and then, over a prime field F_p, one point of each Frobenius
    orbit of degree k in FiniteField(p, k), for every k with a default
    modulus.  The entries then have coefficients in F_p, so conjugate points
    give conjugate matrices of equal rank, and the points of a proper
    subfield were tried before.  Over F_2 the points of F_2 and F_4 are the
    roots of the units t, t + 1 and t^2 + t + 1 of the char-2 families, where
    their Clifford matrices can lose rank; the points of F_8 avoid them all.
    """
    if not base.enumerable:
        for v in (2, 3, 5, 7, 11):
            yield base, base.from_int(v), base.coerce
        return
    for t0 in base.elements():
        yield base, t0, base.coerce
    if not isinstance(base, FiniteField) or base.k != 1:
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
                yield E, t0, lift


def _specialize(rows, E, t0, lift):
    """The rational-function rows at t = t0, over E; None when a denominator vanishes."""

    def value(poly):
        out = E.zero()
        for c in reversed(poly.coeffs):
            out = out * t0 + lift(c)
        return out

    # one object per distinct value: a 64 x 64 matrix over a small field
    # repeats few values, and an object per entry raised the audit's peak memory
    spec, shared = [], {}
    for row in rows:
        out = []
        for c in row:
            den = value(c.den)
            if E.is_zero(den):
                return None
            v = value(c.num) / den
            out.append(shared.setdefault(v, v))
        spec.append(tuple(out))
    return spec


def clifford_iso_check(ad, cor):
    """Dimension-count bijectivity of the induced Clifford map onto M_2(Cor).

    Expresses the f(xi_i) in Cor (the check that f lands in M_2(Cor)),
    verifies the defining relations there, extends xi -> f(xi)
    multiplicatively to the 64 monomials by Cor products, checks the even
    part lands block-diagonally, and certifies that the 64 images have rank
    64 in the 64-dimensional F-space M_2(Cor), i.e. the map is bijective.
    Products of elements of Cor stay in Cor (build_corestriction verified
    closure), so no image needs its own membership check.
    """
    from .corestriction import cor_f_basis, m2_equals_scalar, m2_mul

    F = ad.ext.base
    n = 6
    fs = cor_f_basis(ad, cor)
    if fs is None:
        raise RelationViolation("image entry leaves the fixed algebra")
    B = ad.form.polar_matrix()
    ident = ((cor.one(), cor.zero()), (cor.zero(), cor.one()))
    # defining relations
    for i in range(n):
        sq = m2_mul(cor, fs[i], fs[i])
        if not m2_equals_scalar(cor, sq, ad.form.upper[i][i]):
            raise RelationViolation("f(xi_i)^2 relation fails")
        for j in range(i + 1, n):
            anti = _m2_add(m2_mul(cor, fs[i], fs[j]), m2_mul(cor, fs[j], fs[i]))
            if not m2_equals_scalar(cor, anti, B[i][j]):
                raise RelationViolation("anticommutation relation fails")
    # monomial images, increasing mask order
    images = {0: ident}
    for mask in range(1, 64):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        if rest == 0:
            images[mask] = fs[i]
        else:
            # e_mask = e_i * e_rest with i below every index of rest
            images[mask] = m2_mul(cor, fs[i], images[rest])
    rows = []
    for mask in range(64):
        M = images[mask]
        rows.append(tuple(c for r in range(2) for entry in M[r] for c in entry.coords))
        if bin(mask).count("1") % 2 == 0 and not (M[0][1].is_zero() and M[1][0].is_zero()):
            raise RelationViolation("even monomial image is not block-diagonal")
    rank = _rank_certified(rows, F, 64)
    if rank != 64:
        raise RankDeficient("Clifford image has rank %d" % rank)
    return {"rank": rank, "monomials": 64}


def _m2_add(A, B):
    return tuple(tuple(A[i][j] + B[i][j] for j in range(2)) for i in range(2))
