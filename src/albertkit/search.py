"""Candidate streams and search budgets.

Every bounded search draws its candidates from a stream defined here and
stops at a limit defined here: a "yes" verdict carries a witness that one
of these streams produced, and an "unknown" verdict means one of these
bounds ran out.  The streams are deterministic, so witnesses and reported
`searched` counts are reproducible.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import AlgebraError
from .fields import QuadraticFieldExtension, RatFuncElem, RationalField, RationalFunctionField

DEFAULT_HEIGHT = 12  # height bound of the isotropy oracles, the harness and the CLI
# vectors hasse_minkowski's witness scan evaluates once isotropy is proved;
# the pools' largest scan takes 462,512 (split-K-over-Q seed 77)
WITNESS_DRAWS = 1 << 20
# vectors bounded_search evaluates over an infinite field, where no scan
# of the batch runs and the largest of the test suite draws 728: over
# Q(sqrt d) a scan evaluates some 6,000 vectors per second
SEARCH_DRAWS = 1 << 13
SCAN_POINTS = 300000  # F_q(t) scans go on to height 2 while q^(2n) is at most this
# char2_isotropic_stream: degree bound of the values fixed on the other
# blocks, and the assignments tried per block
CHAR2_TAIL_HEIGHT = 1
CHAR2_TAILS = 1500
HARNESS_SUBALGEBRA_CANDIDATES = 3000  # find_disjoint_quadratic_subalgebra's budget


class Budget:
    """A limit on the candidates one search draws, shared by the streams it takes.

    `spent` counts every draw, the one that crosses `limit` included: a
    search stopped by its limit has spent `limit + 1`, and one whose stream
    ran dry first has spent the stream's length.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, limit):
        self.limit = limit
        self.spent = 0

    @property
    def exhausted(self):
        return self.spent > self.limit

    def take(self, stream):
        """The items of `stream`, until a draw takes `spent` past `limit`."""
        if self.exhausted:
            return
        for item in stream:
            self.spent += 1
            if self.spent > self.limit:
                return
            yield item


def centered_ints(h):
    """0, 1, -1, 2, -2, ..., h, -h."""
    return [0] + [s * v for v in range(1, h + 1) for s in (1, -1)]


def primitive_int_vectors(n, h):
    """Primitive integer vectors of sup-norm exactly h, echelon-ordered.

    Enumeration: first nonzero coordinate position ascending, leading value
    positive, remaining coordinates in centered (0, 1, -1, ...) order; only
    vectors new at height h are produced.
    """
    pool = centered_ints(h)
    for k in range(n):
        for lead in range(1, h + 1):
            tails = itertools.product(pool, repeat=n - k - 1) if lead == h else _tails_reaching(pool, n - k - 1)
            for tail in tails:
                vec = (0,) * k + (lead,) + tail
                if gcd(*vec) == 1:
                    yield vec


def _tails_reaching(pool, m):
    """The m-tuples of itertools.product(pool, repeat=m) that hold h or -h,
    the last two entries of the centered pool, in product order; no other
    tuple is formed."""
    if m == 1:
        yield from ((c,) for c in pool[-2:])
    elif m > 1:
        for i, head in enumerate(pool):
            rests = itertools.product(pool, repeat=m - 1) if i >= len(pool) - 2 else _tails_reaching(pool, m - 1)
            for rest in rests:
                yield (head,) + rest


def polys(field, coeffs, maxdeg, height=None):
    """Polynomials of degree <= maxdeg with coefficients from `coeffs`, each once.

    Ordered by degree, then in product order (constant term first), so 0
    comes where it falls among the constants.  With `height`, only those
    whose largest |coefficient| is `height`.
    """
    for d in range(maxdeg + 1):
        for c in itertools.product(coeffs, repeat=d + 1):
            if (d == 0 or c[-1]) and (height is None or max(map(abs, c)) == height):
                yield field.poly_elem(c)


def scalar_candidates(field, height):
    """Deterministic small-first stream of field scalars for searches.

    Exhaustive for enumerable fields; height-graded otherwise, with 0 first.
    """
    if field.enumerable:
        yield from field.elements()
        return
    if isinstance(field, RationalField):
        yield field.zero()
        for h in range(1, height + 1):
            for den in range(1, h + 1):
                for num in centered_ints(h):
                    fr = Fraction(num, den)
                    if fr != 0 and max(abs(fr.numerator), fr.denominator) == h:
                        yield fr
        return
    if isinstance(field, QuadraticFieldExtension):
        yield field.zero()
        for h in range(1, height + 1):
            for a in centered_ints(h):
                for b in centered_ints(h):
                    if max(abs(a), abs(b)) == h:
                        yield field.from_pair(a, b)
        return
    if isinstance(field, RationalFunctionField):
        yield field.zero()
        if field.base.enumerable:
            yield from (p for p in polys(field, list(field.base.elements()), height) if p)
        else:
            for h in range(1, height + 1):
                yield from polys(field, range(-h, h + 1), min(2, h - 1), height=h)
        return
    raise AlgebraError("no scalar candidates for %s" % field.name)


def projective_points(field, n, h):
    """Projective candidate vectors that are new at height h."""
    if field.enumerable:
        if h != 1:
            return
        elems = list(field.elements())
        one = field.one()
        zero = field.zero()
        for k in range(n):
            for tail in itertools.product(elems, repeat=n - k - 1):
                yield (zero,) * k + (one,) + tail
        return
    if isinstance(field, RationalField):
        for vec in primitive_int_vectors(n, h):
            yield tuple(Fraction(c) for c in vec)
        return
    if isinstance(field, RationalFunctionField):
        zero = field.zero()
        if field.base.enumerable:
            # polynomials of degree < h (0 among them); vectors reaching
            # degree h - 1 are new
            deg = h - 1
            pool = list(polys(field, list(field.base.elements()), deg))
            for vec in itertools.product(pool, repeat=n):
                if all(v == zero for v in vec):
                    continue
                if max((v.num.degree for v in vec if v != zero), default=-1) != deg:
                    continue
                yield vec
            return
        # integer-coefficient polynomials over Q(t), low degree: a vector is
        # new when some entry has coefficient height exactly h
        maxdeg = min(2, h - 1)
        top = list(polys(field, range(-h, h + 1), maxdeg, height=h))
        small = list(polys(field, range(1 - h, h), maxdeg))
        for vec in itertools.product(top + small, repeat=n):
            if all(not v for v in vec):
                continue
            if not any(p in top for p in vec):
                continue
            yield vec
        return
    if isinstance(field, QuadraticFieldExtension):
        # coordinates a + b w, with (a, b) pairs of a base candidate
        for vec in projective_points(field.base, 2 * n, h):
            yield tuple(field.from_pair(vec[2 * i], vec[2 * i + 1]) for i in range(n))
        return
    raise AlgebraError("no candidate enumeration for %s" % field.name)


def scan_heights(field, n):
    """Heights of the low-degree scans of an n-dimensional form over F_q(t)."""
    return (1, 2) if field.base.order ** (2 * n) <= SCAN_POINTS else (1,)


def _clear_denominators(f, vec):
    """vec scaled to polynomial entries over F(t); unchanged over other fields."""
    if not isinstance(f, RationalFunctionField):
        return vec
    lcm = None
    for c in vec:
        d = c.den
        if lcm is None:
            lcm = d
        elif d.degree > 0:
            g = lcm.gcd(d)
            lcm = lcm.divmod(g)[0] * d
    scale = RatFuncElem(f, lcm, f.one().den, reduce=False)
    return tuple(c * scale for c in vec)


def zeros(form, heights, budget=None):
    """(h, v) for every projective candidate v of height h with form(v) = 0.

    A `budget` counts every vector evaluated and ends the scan when it runs
    out.  Over Q the form is scaled once to integer coefficients and each
    primitive integer vector is evaluated with ints, in the order of
    projective_points; only a zero becomes a Fraction tuple.  Over F(t) a
    form with denominators is scaled once to polynomial coefficients, whose
    products need no gcd.
    """
    f = form.field
    if isinstance(f, RationalFunctionField) and any(c.den.degree for row in form.upper for c in row):
        flat = _clear_denominators(f, [c for row in form.upper for c in row])
        form = type(form)(f, [flat[i : i + form.n] for i in range(0, len(flat), form.n)])
    rational = isinstance(f, RationalField)
    points = primitive_int_vectors if rational else functools.partial(projective_points, f)
    vectors = ((h, vec) for h in heights for vec in points(form.n, h))
    if budget is not None:
        vectors = budget.take(vectors)
    if rational:
        scale = lcm(*(c.denominator for row in form.upper for c in row))
        terms = [(i, j, int(c * scale)) for i, row in enumerate(form.upper) for j, c in enumerate(row) if c]
        for h, vec in vectors:
            if not sum(c * vec[i] * vec[j] for i, j, c in terms):
                yield h, tuple(map(Fraction, vec))
        return
    for h, vec in vectors:
        if f.is_zero(form.evaluate(vec)):
            yield h, vec
