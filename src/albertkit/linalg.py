"""Exact Gaussian elimination over any of the toolkit's fields.

Matrices are lists/tuples of row tuples.  Kernel bases are
echelon-normalized so all outputs are deterministic.
"""

from __future__ import annotations


def _rref(rows, field, ncols):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not field.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rank(rows, field, ncols=None):
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return len(_rref(rows, field, ncols)[0])


def kernel_basis(rows, field, ncols):
    """Echelon-normalized basis of the right kernel of the matrix."""
    red, pivots = _rref(rows, field, ncols) if rows else ([], [])
    piv_set = set(pivots)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for fc in free:
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs, field):
    """One solution of rows * x = rhs, or None when inconsistent."""
    if not rows:
        return () if all(field.is_zero(b) for b in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red_full, piv_full = _rref(aug, field, ncols + 1)
    if ncols in piv_full:
        return None
    sol = [field.zero()] * ncols
    for i, pc in enumerate(piv_full):
        sol[pc] = red_full[i][ncols]
    for acc, b in zip(mat_vec(rows, sol, field), rhs):
        if not field.is_zero(acc - b):
            return None
    return tuple(sol)


def mat_vec(rows, vec, field):
    out = []
    for r in rows:
        acc = field.zero()
        for a, x in zip(r, vec):
            acc = acc + a * x
        out.append(acc)
    return tuple(out)


def combine(coeffs, vectors, field, n):
    """The n-vector sum of c * v over paired coefficients and vectors."""
    out = [field.zero()] * n
    for c, vec in zip(coeffs, vectors):
        if not field.is_zero(c):
            out = [a + c * b for a, b in zip(out, vec)]
    return tuple(out)


def is_zero_vec(u, field):
    return all(field.is_zero(a) for a in u)


def independent_indices(vectors, field, n):
    """Indices of the greedy maximal independent subset of n-vectors, in order.

    These are the pivot columns of the matrix with the vectors as columns:
    vector k is chosen exactly when it is independent of those before it.
    """
    if not vectors:
        return []
    return _rref([[v[r] for v in vectors] for r in range(n)], field, len(vectors))[1]


def units(field, n):
    """The n standard basis vectors of field^n."""
    zero, one = field.zero(), field.one()
    return [tuple(one if i == j else zero for i in range(n)) for j in range(n)]


def extend_to_basis(vectors, field, n):
    """Standard basis vectors completing the given independent set."""
    e = units(field, n)
    k = len(vectors)
    return [e[i - k] for i in independent_indices(list(vectors) + e, field, n) if i >= k]


def independent_subset(vectors, field, n, target=None):
    """Greedy maximal independent subset, in input order."""
    return [tuple(vectors[i]) for i in independent_indices(vectors, field, n)[:target]]
