"""Reference constructions that only the tests read.

The sparse Clifford algebra (monomials e_S indexed by bit masks, products
reduced to the increasing-index normal form via e_i^2 = phi(e_i) and
e_j e_i = polar(e_i, e_j) - e_i e_j for i < j, which degenerates correctly
in characteristic 2) and the Arf invariant read off the center of its even
part, against which `clifford.arf_trivial`'s formula is tested; the
enumeration and structured-rule isotropy verdicts over finite fields, the
squarefree part of a rational and the invariants of forms over Q, the
determinant by its own elimination and definiteness by leading minors,
against which `isotropy.definiteness_certificate` is tested, the
orthogonal and symplectic bases with an elimination per round, against
which `forms.orthogonalize` and `forms.symplectic_pairs` are tested, the
spec of
an extension, the projection of a split corestriction onto Q1 (x) Q2,
and the monomial rows of the Clifford check by plain 2x2 matrix products,
against which the even and odd pairs of `corestriction.f_product` are
tested.  Also the constructions that build test data or check an identity
once: the column-by-column isometric embedding search, a quaternion algebra
from an etale algebra and a unit, the closed quaternion product formula
against which the structure constants are tested, and the associativity
check on basis triples.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from albertkit import linalg
from albertkit.corestriction import TensorProductAlgebra
from albertkit.errors import AlgebraError, BudgetExhausted, InternalContradiction
from albertkit.fields import QQ, EtaleAlgebra
from albertkit.forms import orthogonalize, symplectic_pairs
from albertkit.isotropy import (
    ANISOTROPIC,
    ISOTROPIC,
    _square_test,
    bounded_search,
)
from albertkit.jsonio import format_element
from albertkit.places import _factor_int, _hasse, _relevant_places
from albertkit.quaternion import QuaternionAlgebra
from albertkit.search import Budget, scalar_candidates

EMBEDDING_CANDIDATES = 200000  # isometric_embedding: columns tried over the whole search


class DimensionCap(AlgebraError):
    """Input exceeds a documented dimension cap."""


# ---------------------------------------------------------------------------
# the Clifford algebra by monomial rewriting
# ---------------------------------------------------------------------------


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


def clifford_arf(form):
    """(trivial, p, q) read off the center of the even Clifford algebra.

    omega^2 = q + p omega for the distinguished central element omega;
    triviality means X^2 - pX - q splits, checked with an explicit
    nontrivial idempotent of the center.
    """
    if not form.classify().nonsingular:
        raise AlgebraError("Arf invariant needs a nonsingular form")
    if form.n % 2:
        raise AlgebraError("Arf invariant needs an even-dimensional form")
    C = CliffordAlgebra(form)
    f = form.field
    omega = _central_even_element(C)
    omega2 = omega * omega
    pivot = next(m for m in sorted(omega.data) if m != 0)
    p = omega2.coeff(pivot) / omega.data[pivot]
    q = omega2.coeff(0) - p * omega.coeff(0)
    if not (omega2 - omega * p - C.one() * q).is_zero():
        raise InternalContradiction("omega^2 does not lie in span(1, omega)")
    roots = f.monic_quadratic_roots(-p, -q)
    if len(roots) < 2:
        return False, p, q
    r1, r2 = roots[0], roots[1]
    z = (omega - C.one() * r2) * (f.one() / (r1 - r2))
    if not (z * z - z).is_zero():
        raise InternalContradiction("idempotent construction failed")
    return True, p, q


# ---------------------------------------------------------------------------
# isotropy over finite fields and invariants over Q
# ---------------------------------------------------------------------------


def enumeration_isotropy(form):
    """Complete enumeration verdict over an enumerable field."""
    if not form.field.enumerable:
        raise AlgebraError("enumeration requires an enumerable field")
    return bounded_search(form, 1)


def structured_finite_isotropy(form):
    """Verdict over a finite field by scalar-level rules, no vector scans.

    Rules: a nonzero radical vector is a witness; regular forms in three
    or more variables are isotropic (Chevalley-Warning); binary regular
    forms reduce to a square-class or Artin-Schreier condition.  Returns
    the status only (no witness).
    """
    f = form.field
    if not f.enumerable:
        raise AlgebraError("structured rules need a finite field")
    if form.n == 0:
        return ANISOTROPIC
    cls = form.classify()
    if cls.rad_basis:
        return ISOTROPIC
    if form.n == 1:
        return ANISOTROPIC
    if form.n >= 3:
        return ISOTROPIC
    # regular binary forms
    if f.char != 2:
        basis = orthogonalize(form)
        return _square_test(form, basis, [form.evaluate(v) for v in basis]).status
    B = form.polar_matrix()
    if f.is_zero(B[0][1]):
        # totally singular regular binary form over a perfect field has a
        # nonzero radical vector, handled above; reaching here means regular
        # with zero polar and no radical zero, impossible over perfect fields
        raise InternalContradiction("unexpected singular binary form")
    (u, g), = symplectic_pairs(form)
    a, b = form.evaluate(u), form.evaluate(g)
    if f.is_zero(a) or f.is_zero(b):
        return ISOTROPIC
    # a x^2 + xy + b y^2 isotropic iff X^2 + X + ab has a root
    return ISOTROPIC if f.monic_quadratic_roots(f.one(), a * b) else ANISOTROPIC


def squarefree_part(x):
    """The squarefree integer representing the square class of x in Q*."""
    x = QQ.coerce(x)
    if x == 0:
        raise AlgebraError("zero has no square class")
    n = x.numerator * x.denominator
    out = -1 if n < 0 else 1
    for p, e in _factor_int(n).items():
        if e % 2:
            out *= p
    return out


def rational_invariants(form):
    """(dim, signature, disc square class, hasse symbols) over Q."""
    vals = [form.evaluate(v) for v in orthogonalize(form)]
    d = [squarefree_part(v) for v in vals]
    pos = sum(1 for v in vals if v > 0)
    disc = squarefree_part(Fraction(math.prod(d)))
    hasse = {str(v): _hasse(d, v) for v in _relevant_places(d)}
    return {"dim": form.n, "positive": pos, "disc": disc, "hasse": hasse}


def rationally_equivalent(f1, f2):
    """Exact equivalence test for regular forms over Q via invariants.

    A place listed for one form only reads 1 for the other: it is an odd
    prime dividing none of that form's d_i, where every (d_i, d_j) is 1.
    """
    a, b = rational_invariants(f1), rational_invariants(f2)
    if a["dim"] != b["dim"] or a["positive"] != b["positive"] or a["disc"] != b["disc"]:
        return False
    return all(a["hasse"].get(v, 1) == b["hasse"].get(v, 1) for v in set(a["hasse"]) | set(b["hasse"]))


# ---------------------------------------------------------------------------
# determinants and definiteness by leading minors
# ---------------------------------------------------------------------------


def det(rows, field):
    n = len(rows)
    rows = [list(r) for r in rows]
    out = field.one()
    for c in range(n):
        pr = None
        for i in range(c, n):
            if not field.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            return field.zero()
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            out = -out
        out = out * rows[c][c]
        inv = field.one() / rows[c][c]
        for i in range(c + 1, n):
            if not field.is_zero(rows[i][c]):
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return out


def leading_minor_definiteness(form):
    """Whether a form over a quadratic extension of Q is definite under a
    real embedding, by Sylvester's criterion on the leading principal minors
    of its polar matrix: all positive, or alternating from negative."""
    f = form.field
    if f.alpha * f.alpha + 4 * f.beta <= 0:
        return False
    B = form.polar_matrix()
    minors = [det([row[:k] for row in B[:k]], f) for k in range(1, form.n + 1)]
    for signs in zip(*map(f.real_embedding_signs, minors)):
        if all(s == 1 for s in signs) or all(s == (-1) ** (i + 1) for i, s in enumerate(signs)):
            return True
    return False


# ---------------------------------------------------------------------------
# orthogonal and symplectic bases with an elimination per round
# ---------------------------------------------------------------------------


def orthogonalize_by_elimination(form):
    """`forms.orthogonalize` as it was with an elimination per round: the
    nonzero projections re-selected by `linalg.independent_subset`."""
    f = form.field
    if f.char == 2:
        raise AlgebraError("no orthogonal bases in characteristic 2")
    n = form.n
    out = []
    remaining = linalg.units(f, n)
    while remaining:
        pick = None
        for v in remaining:
            if not f.is_zero(form.evaluate(v)):
                pick = v
                break
        if pick is None:
            for u, v in itertools.combinations(remaining, 2):
                cand = tuple(a + b for a, b in zip(u, v))
                if not f.is_zero(form.evaluate(cand)):
                    pick = cand
                    break
        if pick is None:
            out.extend(remaining)
            break
        out.append(pick)
        pv = form.polar(pick, pick)
        reduced = []
        for v in remaining:
            c = form.polar(pick, v) / pv
            w = tuple(a - c * b for a, b in zip(v, pick))
            if not linalg.is_zero_vec(w, f):
                reduced.append(w)
        remaining = linalg.independent_subset(reduced, f, n, target=None)
        remaining = remaining[: n - len(out)]
    return out


def symplectic_pairs_by_elimination(form):
    """`forms.symplectic_pairs` as it was with an elimination per round."""
    f = form.field
    if f.char != 2:
        raise AlgebraError("symplectic reduction is a characteristic-2 tool")
    n = form.n
    out = []
    remaining = linalg.units(f, n)
    while remaining:
        u = remaining[0]
        g = None
        for v in remaining[1:]:
            if not f.is_zero(form.polar(u, v)):
                g = v
                break
        if g is None:
            raise AlgebraError("polar form is degenerate on the remaining space")
        g = tuple(c / form.polar(u, g) for c in g)
        out.append((u, g))
        reduced = []
        for v in remaining[1:]:
            cu = form.polar(g, v)
            cg = form.polar(u, v)
            w = tuple(a + cu * b + cg * c for a, b, c in zip(v, u, g))
            if not linalg.is_zero_vec(w, f):
                reduced.append(w)
        remaining = linalg.independent_subset(reduced, f, n)
    return out


# ---------------------------------------------------------------------------
# extensions and the split corestriction
# ---------------------------------------------------------------------------


def extension_to_spec(ext):
    if ext.kind == "split":
        return "split"
    base = ext.base
    out = "x^2"
    if not base.is_zero(ext.alpha):
        out += "-(%s)*x" % format_element(base, ext.alpha)
    if not base.is_zero(ext.beta):
        out += "-(%s)" % format_element(base, ext.beta)
    return out


def split_projection_iso(ext, cor, Q1, Q2):
    """Second-component projection: fixed algebra -> Q1 (x) Q2.

    Returns the 16x16 matrix over F (columns are images of the fixed
    basis); verifies bijectivity and multiplicativity on all basis pairs.
    """
    if ext.kind != "split":
        raise AlgebraError("projection iso needs split K")
    F = ext.base
    direct = tensor_product_algebra(Q1, Q2)
    images = [tuple(c.b for c in b.coords) for b in cor.basis]
    if linalg.rank(list(images), F, 16) != 16:
        raise InternalContradiction("projection is not bijective")
    units = [cor.elem(e) for e in linalg.units(F, 16)]
    for r in range(16):
        for s in range(16):
            lhs = linalg.combine((units[r] * units[s]).coords, images, F, 16)
            rhs = (direct.elem(images[r]) * direct.elem(images[s])).coords
            if lhs != rhs:
                raise InternalContradiction("projection fails multiplicativity")
    return direct, images


def tensor_product_algebra(Q1, Q2):
    """Q1 (x)_F Q2 on the basis q_i (x) q_j."""
    if Q1.ring != Q2.ring:
        raise AlgebraError("tensor factors over different fields")
    return TensorProductAlgebra(Q1.ring, Q1, Q2)


# ---------------------------------------------------------------------------
# 2x2 matrices over an algebra, as tuples of rows
# ---------------------------------------------------------------------------


def f_as_matrix(alg, f):
    """The pair (eta, xi) of f(xi) as the matrix ((0, eta), (xi, 0))."""
    eta, xi = f
    return (alg.zero(), eta), (xi, alg.zero())


def m2_mul(alg, A, B):
    """The product of two 2x2 matrices over `alg`, entry by entry."""
    return tuple(
        tuple(A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)) for i in range(2)
    )


def monomial_rows_m2(alg, fs):
    """The 64 coordinate rows of the monomial images of the pairs `fs`, by 2x2 products.

    The image of e_S is the product of the matrices of the f(xi_i), i in S,
    in increasing order: e_mask = f_i * e_rest with i below every index of
    rest.  Its row is the coordinates of its four entries in row order.
    """
    one, zero = alg.one(), alg.zero()
    mats = [f_as_matrix(alg, f) for f in fs]
    images = [((one, zero), (zero, one))]
    for mask in range(1, 64):
        low = mask & -mask
        i = low.bit_length() - 1
        images.append(m2_mul(alg, mats[i], images[mask ^ low]))
    return [tuple(c for row in M for entry in row for c in entry.coords) for M in images]


# ---------------------------------------------------------------------------
# test-data constructions
# ---------------------------------------------------------------------------


def isometric_embedding(psi, phi, height=20):
    """An injective U with phi(U x) = psi(x), None if proven absent.

    Column by column: the polar compatibility conditions against earlier
    columns are linear, so each column ranges over an affine subspace whose
    parameters are enumerated (exhaustively for enumerable fields, by
    bounded height otherwise).  BudgetExhausted distinguishes an undecided
    search from a proven absence; its `searched` counts the column vectors
    drawn over the whole search.
    """
    f = psi.field
    if phi.field != f:
        raise AlgebraError("embedding across different fields")
    if psi.n > phi.n:
        return None
    if phi.n > 8:
        raise AlgebraError("embedding search capped at dimension 8")
    budget = Budget(EMBEDDING_CANDIDATES)
    pool = list(scalar_candidates(f, height))
    psiB = psi.polar_matrix()
    cols = []

    def column_candidates(k):
        rows = [phi.polar_row(cols[j]) for j in range(k)]
        part = linalg.solve(rows, psiB[k][:k], f) if rows else (f.zero(),) * phi.n
        if part is None:
            return
        kern = phi.orthogonal_complement(cols[:k])
        if not kern:
            yield part
            return
        for coeffs in budget.take(itertools.product(pool, repeat=len(kern))):
            yield tuple(a + b for a, b in zip(part, linalg.combine(coeffs, kern, f, phi.n)))

    def extend(k):
        if k == psi.n:
            return True
        target_val = psi.upper[k][k]
        for vec in column_candidates(k):
            if linalg.is_zero_vec(vec, f):
                continue
            if phi.evaluate(vec) != target_val:
                continue
            if linalg.rank(cols + [vec], f, phi.n) != k + 1:
                continue
            cols.append(vec)
            if extend(k + 1):
                return True
            cols.pop()
        return False

    if not extend(0):
        if f.enumerable and not budget.exhausted:
            return None
        raise BudgetExhausted("embedding not found within the search budget", searched=budget.spent)
    if phi.restrict(cols) != psi:
        raise AlgebraError("embedding verification failed")
    return list(cols)


def make_quaternion(E, a):
    """Quaternion algebra from an etale quadratic algebra E/D and a unit a.

    E is a quadratic extension of D or D x D; the split case embeds as
    alpha = 1, beta = 0 (D x D presented by the polynomial x^2 - x).
    """
    if not isinstance(E, EtaleAlgebra):
        raise AlgebraError("make_quaternion expects a quadratic etale algebra")
    if E.kind == "field":
        return QuaternionAlgebra(E.base, E.alpha, E.beta, a)
    return QuaternionAlgebra(E.base, E.base.one(), E.base.zero(), a)


def quaternion_product(Q, x, y):
    """The coordinates of x y in Q = (E/D, a) by the closed formula

    (l1 + l2 z)(m1 + m2 z) = l1 m1 + a l2 iota(m2) + (l1 m2 + l2 iota(m1)) z,

    for l, m in E = D[e] written as pairs (c0, c1) meaning c0 + c1 e.
    """
    alpha, beta, a = Q.alpha, Q.beta, Q.a

    def emul(u, v):
        bb = u[1] * v[1]
        return (u[0] * v[0] + beta * bb, u[0] * v[1] + u[1] * v[0] + alpha * bb)

    def iota(u):
        return (u[0] + alpha * u[1], -u[1])

    l1, l2, m1, m2 = x[:2], x[2:], y[:2], y[2:]
    p1, p2 = emul(l1, m1), emul(l2, iota(m2))
    q1, q2 = emul(l1, m2), emul(l2, iota(m1))
    return (p1[0] + a * p2[0], p1[1] + a * p2[1], q1[0] + q2[0], q1[1] + q2[1])


def check_associative(Q):
    """Raise AlgebraError unless Q's unit law and associativity hold on the basis."""
    basis = Q.basis()
    one = Q.one()
    for b in basis:
        if (one * b).coords != b.coords or (b * one).coords != b.coords:
            raise AlgebraError("unit law fails")
    for x, y, z in itertools.product(basis, repeat=3):
        if ((x * y) * z).coords != (x * (y * z)).coords:
            raise AlgebraError("associativity fails on basis triple")
