"""Quadratic forms over exact fields, valid in every characteristic.

A form is stored by its upper-triangular coefficient matrix M, so that
phi(x) = sum_{i<=j} M[i][j] x_i x_j.  The polar form is b(x,y) =
phi(x+y) - phi(x) - phi(y) with matrix B = M + M^T; in characteristic 2
the representation keeps binary blocks [a, b] first-class, since
diagonalization does not exist there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .errors import AlgebraError, NotIsotropic
from .search import scalar_candidates  # noqa: F401  (perfbench/tracer.py counts it under this name)


class QuadraticForm:
    __slots__ = ("field", "n", "upper", "_polar")

    def __init__(self, field, upper):
        self.field = field
        rows = []
        n = len(upper)
        for i, row in enumerate(upper):
            if len(row) != n:
                raise AlgebraError("upper matrix must be square")
            coerced = []
            for j, c in enumerate(row):
                c = field.coerce(c)
                if j < i and not field.is_zero(c):
                    raise AlgebraError("coefficient matrix must be upper triangular")
                coerced.append(c)
            rows.append(tuple(coerced))
        self.n = n
        self.upper = tuple(rows)
        self._polar = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def diagonal(cls, field, entries):
        entries = [field.coerce(e) for e in entries]
        n = len(entries)
        z = field.zero()
        return cls(field, [[entries[i] if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def binary(cls, field, a, b):
        """The binary form a x^2 + xy + b y^2 (notation [a, b])."""
        z = field.zero()
        return cls(field, [[field.coerce(a), field.one()], [z, field.coerce(b)]])

    @classmethod
    def hyperbolic_plane(cls, field):
        return cls.binary(field, 0, 0)

    @classmethod
    def from_map(cls, field, q, vectors):
        """The form x -> q(sum x_i v_i) of a quadratic map q on coordinate tuples v_i.

        q(v_i) goes on the diagonal and q(v_i + v_j) - q(v_i) - q(v_j)
        above it.
        """
        m = len(vectors)
        z = field.zero()
        diag = [q(v) for v in vectors]
        rows = [[z] * m for _ in range(m)]
        for i, v in enumerate(vectors):
            rows[i][i] = diag[i]
            for j in range(i + 1, m):
                rows[i][j] = q(tuple(a + b for a, b in zip(v, vectors[j]))) - diag[i] - diag[j]
        return cls(field, rows)

    @classmethod
    def zero_form(cls, field, n):
        z = field.zero()
        return cls(field, [[z] * n for _ in range(n)])

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, x):
        if len(x) != self.n:
            raise AlgebraError("dimension mismatch: %d vs %d" % (len(x), self.n))
        f = self.field
        acc = f.zero()
        for i in range(self.n):
            xi = x[i]
            if f.is_zero(xi):
                continue
            row = self.upper[i]
            for j in range(i, self.n):
                c = row[j]
                if not f.is_zero(c):
                    acc = acc + c * xi * x[j]
        return acc

    def polar_matrix(self):
        if self._polar is None:
            f = self.field
            B = []
            for i in range(self.n):
                row = []
                for j in range(self.n):
                    if i < j:
                        row.append(self.upper[i][j])
                    elif i > j:
                        row.append(self.upper[j][i])
                    else:
                        row.append(self.upper[i][i] + self.upper[i][i])
                B.append(tuple(row))
            self._polar = tuple(B)
        return self._polar

    def polar_row(self, v):
        """B v for the (symmetric) polar matrix B: polar(v, x) = sum_j row[j] x_j."""
        return linalg.mat_vec(self.polar_matrix(), v, self.field)

    def orthogonal_complement(self, vectors):
        """Echelon basis of the vectors polar-orthogonal to every given vector."""
        return linalg.kernel_basis([self.polar_row(v) for v in vectors], self.field, self.n)

    def polar(self, x, y):
        if len(x) != self.n or len(y) != self.n:
            raise AlgebraError("dimension mismatch in polar form")
        f = self.field
        B = self.polar_matrix()
        acc = f.zero()
        for i in range(self.n):
            if f.is_zero(x[i]):
                continue
            row = B[i]
            for j in range(self.n):
                if not f.is_zero(y[j]) and not f.is_zero(row[j]):
                    acc = acc + x[i] * row[j] * y[j]
        return acc

    # -- constructions ---------------------------------------------------
    def orthogonal_sum(self, other):
        if other.field is not self.field:
            raise AlgebraError("orthogonal sum across different fields")
        f = self.field
        n, m = self.n, other.n
        z = f.zero()
        rows = []
        for i in range(n):
            rows.append(list(self.upper[i]) + [z] * m)
        for i in range(m):
            rows.append([z] * n + list(other.upper[i]))
        return QuadraticForm(f, rows)

    def scale(self, c):
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            raise AlgebraError("scaling a form by zero")
        return QuadraticForm(self.field, [[e * c for e in row] for row in self.upper])

    def restrict(self, vectors):
        """The form in the coordinates of the given independent vectors."""
        f = self.field
        vecs = [tuple(f.coerce(c) for c in v) for v in vectors]
        if vecs and linalg.rank(vecs, f, self.n) != len(vecs):
            raise AlgebraError("restriction basis is dependent")
        return QuadraticForm.from_map(f, self.evaluate, vecs)

    def base_change(self, target, embed=None):
        """The same coefficients read in a bigger field."""
        if embed is None:
            embed = target.from_base
        return QuadraticForm(target, [[embed(c) for c in row] for row in self.upper])

    # -- classification ----------------------------------------------------
    def classify(self):
        f = self.field
        B = self.polar_matrix()
        rad_polar = linalg.kernel_basis(list(B), f, self.n)
        rad = self._radical_of_restriction(rad_polar)
        nonsingular = not rad_polar
        regular = not rad
        nondegenerate = regular and len(rad_polar) <= 1
        return FormClass(nonsingular, regular, nondegenerate, tuple(rad_polar), tuple(rad))

    def _radical_of_restriction(self, rad_polar):
        """Vectors of rad(polar) on which phi vanishes."""
        f = self.field
        if not rad_polar:
            return []
        if f.char != 2:
            # phi = polar(x,x)/2 vanishes on the whole polar radical
            return list(rad_polar)
        vals = [self.evaluate(v) for v in rad_polar]
        if all(f.is_zero(v) for v in vals):
            return list(rad_polar)
        if f.is_perfect:
            # sqrt is additive in characteristic 2, so x -> sqrt(phi(x))
            # is linear on the radical
            row = [f.sqrt(v) for v in vals]
            coeff_kernel = linalg.kernel_basis([tuple(row)], f, len(vals))
        else:
            coeff_kernel = self._imperfect_radical_kernel(vals)
        return [linalg.combine(coeffs, rad_polar, f, self.n) for coeffs in coeff_kernel]

    def _imperfect_radical_kernel(self, vals):
        f = self.field
        r = len(vals)
        if r == 1:
            return []  # vals[0] != 0 here
        if r == 2:
            v1, v2 = vals
            if f.is_zero(v1):
                return [(f.one(), f.zero())]
            if f.is_zero(v2):
                return [(f.zero(), f.one())]
            ratio = v2 / v1
            if f.is_square(ratio):
                return [(f.sqrt(ratio), f.one())]
            return []
        raise AlgebraError(
            "radical computation over imperfect characteristic-2 fields is"
            " limited to polar radicals of dimension <= 2 (got %d)" % r
        )

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and other.field is self.field
            and other.upper == self.upper
        )

    def __hash__(self):
        return hash((self.field, self.upper))

    def __repr__(self):
        fmt = self.field.format_element
        rows = "; ".join(",".join(fmt(c) for c in row) for row in self.upper)
        return "QuadraticForm(%s, dim %d: %s)" % (self.field.name, self.n, rows)


@dataclass(frozen=True)
class FormClass:
    nonsingular: bool
    regular: bool
    nondegenerate: bool
    rad_polar_basis: tuple
    rad_basis: tuple


def orthogonalize(form):
    """Orthogonal basis (list of vectors) for a form, characteristic != 2.

    Vectors v with polar(v_i, v_j) = 0 for i != j; phi(v_i) may be zero only
    when the form is not regular on the remaining space.
    """
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
            # phi vanishes on the remaining space: polar does too (char != 2)
            out.extend(remaining)
            break
        out.append(pick)
        pv = form.polar(pick, pick)  # = 2 phi(pick) != 0
        reduced = []
        for v in remaining:
            c = form.polar(pick, v) / pv
            w = tuple(a - c * b for a, b in zip(v, pick))
            if not linalg.is_zero_vec(w, f):
                reduced.append(w)
        remaining = linalg.independent_subset(reduced, f, n, target=None)
        remaining = remaining[: n - len(out)]
    return out


def symplectic_pairs(form):
    """Pairs (f_i, g_i) with polar(f_i, g_i) = 1 spanning the space.

    Characteristic 2 only, where the polar form is alternating; requires a
    nonsingular form.
    """
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


def isotropic_spanning_set(form, witness):
    """A basis of isotropic vectors for a regular isotropic form.

    Constructive version of the spanning lemma: each unit vector x goes to
    its line point x - phi(x)/polar(v, x) * v through the isotropic v, and
    an x orthogonal to v is first shifted by the hyperbolic partner zeta of
    v.  The result is checked isotropic and a basis.
    """
    f = form.field
    n = form.n
    v = tuple(f.coerce(c) for c in witness)
    if linalg.is_zero_vec(v, f) or not f.is_zero(form.evaluate(v)):
        raise NotIsotropic("witness is not a nonzero isotropic vector")
    if not form.classify().regular:
        raise AlgebraError("spanning lemma needs a regular form")
    # v is not in rad(polar): otherwise it would lie in rad(phi) = 0
    zeta = hyperbolic_partner(form, v)
    if zeta is None:
        raise AlgebraError("no dual vector found for the witness")
    candidates = [v, zeta]
    for x in linalg.units(f, n):
        fixed = line_point(form, v, x)
        if fixed is None:
            fixed = line_point(form, v, tuple(a + b for a, b in zip(x, zeta)))
        if not linalg.is_zero_vec(fixed, f):
            candidates.append(fixed)
    basis = linalg.independent_subset(candidates, f, n, target=n)
    if len(basis) != n:
        raise AlgebraError("isotropic vectors failed to span (implementation bug)")
    for b in basis:
        if not f.is_zero(form.evaluate(b)):
            raise AlgebraError("constructed vector is not isotropic")
    if f.is_zero(linalg.det([list(b) for b in basis], f)):
        raise AlgebraError("constructed set is not a basis")
    return basis


def solve_polar_equal_one(form, v):
    """Solve polar(v, x) = 1 for x, or None."""
    return linalg.solve([form.polar_row(v)], (form.field.one(),), form.field)


def line_point(form, u, x):
    """x - (phi(x)/polar(u, x)) * u, or None when polar(u, x) = 0.

    For isotropic u, phi(x + s u) = phi(x) + s polar(u, x), so this is the
    second point, besides u, where the projective line through u and x
    meets the quadric.
    """
    f = form.field
    p = form.polar(u, x)
    if f.is_zero(p):
        return None
    c = form.evaluate(x) / p
    return tuple(a - c * b for a, b in zip(x, u))


def hyperbolic_partner(form, u):
    """zeta isotropic with polar(u, zeta) = 1 for the isotropic u, so that
    (u, zeta) is a hyperbolic pair; None when u lies in the polar radical."""
    w = solve_polar_equal_one(form, u)
    return None if w is None else line_point(form, u, w)


def hyperbolic_split(form, u):
    """(zeta, comp) splitting a hyperbolic plane off the isotropic u.

    zeta is the hyperbolic partner of u and comp is the echelon basis of
    the orthogonal complement of span(u, zeta).  None when u lies in the
    polar radical.
    """
    zeta = hyperbolic_partner(form, u)
    if zeta is None:
        return None
    return zeta, form.orthogonal_complement([u, zeta])
