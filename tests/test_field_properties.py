"""Property tests of the scalar types' arithmetic against plain reference arithmetic.

The reference works on coefficient tuples with plain integers mod p or
Fractions: schoolbook products reduced by the modulus x^k - r(x) for F(p^k),
cross-multiplied numerator/denominator pairs for F(2)(t), F(3)(t) and Q(t),
the product rule of w^2 = alpha w + beta for Q(sqrt 2) and F_2[w]/(w^2+w+1),
and componentwise pairs for F x F; XOR long division and plain coefficient
lists for the packed polynomials over F_2.  It shares no code with albertkit.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from albertkit import (  # noqa: E402
    QQ,
    FiniteField,
    QuadraticFieldExtension,
    RationalFunctionField,
    SplitAlgebra,
)
from albertkit.fields import Poly  # noqa: E402

FIELDS = [FiniteField(2), FiniteField(2, 2), FiniteField(3, 2), FiniteField(65521)]
F2t = RationalFunctionField(FiniteField(2), "t")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# -- reference arithmetic ------------------------------------------------------


def ref_polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def ref_polyadd(a, b, p):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return [(x + y) % p for x, y in zip(a, b)]


def ref_reduce(c, field):
    """c mod x^k - r(x) as a length-k tuple; over a prime field c is a constant."""
    p, k = field.p, field.k
    c = [x % p for x in c] + [0] * k
    for d in range(len(c) - 1, k - 1, -1):
        top, c[d] = c[d], 0
        for i, r in enumerate(field.reduction):
            c[d - k + i] = (c[d - k + i] + top * r) % p
    return tuple(c[:k])


def ref_mul(a, b, field):
    return ref_reduce(ref_polymul(a, b, field.p), field)


def ref_add(a, b, field):
    return tuple(ref_polyadd(a, b, field.p))


# -- strategies ----------------------------------------------------------------


def coefficient_tuples(field):
    return st.tuples(*[st.integers(0, field.p - 1)] * field.k)


def build(field, coeffs):
    """The element with these coefficients, built with the field's own arithmetic."""
    out, power = field.zero(), field.one()
    for c in coeffs:
        out = out + c * power
        power = power * field.gen()
    return out


def finite_cases():
    return st.sampled_from(FIELDS).flatmap(
        lambda F: st.tuples(st.just(F), coefficient_tuples(F), coefficient_tuples(F), coefficient_tuples(F))
    )


f2_polys = st.lists(st.integers(0, 1), max_size=5)
f2_fractions = st.tuples(f2_polys, f2_polys.filter(any))


def ratfunc(pair):
    num, den = pair
    return F2t.poly_elem(num) / F2t.poly_elem(den)


def ref_same_fraction(x, pair):
    """x = num/den, checked as num(x) * den == num * den(x) over F_2."""
    num, den = pair
    xn = [c.coeffs[0] for c in x.num.coeffs]
    xd = [c.coeffs[0] for c in x.den.coeffs]
    return not any(ref_polyadd(ref_polymul(xn, den, 2), ref_polymul(num, xd, 2), 2))


# -- properties ----------------------------------------------------------------


@PROPERTY
@given(finite_cases())
def test_finite_field_axioms_match_reference(case):
    F, ca, cb, cc = case
    a, b, c = build(F, ca), build(F, cb), build(F, cc)
    assert (a.coeffs, b.coeffs, c.coeffs) == (ca, cb, cc)
    assert (a * b).coeffs == ref_mul(ca, cb, F)
    assert (a + b).coeffs == ref_add(ca, cb, F)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == F.zero() and not (a - a) and a + (-a) == 0
    if any(ca):
        inv = F.inv(a)
        assert ref_mul(ca, inv.coeffs, F) == ref_reduce((1,), F)
        assert b / a * a == b


@PROPERTY
@given(f2_fractions, f2_fractions, f2_fractions)
def test_f2t_axioms_match_reference(pa, pb, pc):
    a, b, c = ratfunc(pa), ratfunc(pb), ratfunc(pc)
    assert ref_same_fraction(a, pa)
    prod = (ref_polymul(pa[0], pb[0], 2), ref_polymul(pa[1], pb[1], 2))
    assert ref_same_fraction(a * b, prod)
    total = (ref_polyadd(ref_polymul(pa[0], pb[1], 2), ref_polymul(pb[0], pa[1], 2), 2), prod[1])
    assert ref_same_fraction(a + b, total)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == F2t.zero() and not (a - a) and a + (-a) == 0
    if a:
        assert a * (1 / a) == F2t.one()
        assert b / a * a == b


def trimmed(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def ref_divmod2(a, b):
    """Quotient and remainder over F_2 by schoolbook long division on coefficient lists."""
    a, b = trimmed(a), trimmed(b)
    q, r = [0] * max(0, len(a) - len(b) + 1), list(a)
    for i in range(len(a) - len(b), -1, -1):
        if r[i + len(b) - 1]:
            q[i] = 1
            for j, y in enumerate(b):
                r[i + j] = (r[i + j] + y) % 2
    return trimmed(q), trimmed(r)


def ref_gcd2(a, b):
    while trimmed(b):
        a, b = b, ref_divmod2(a, b)[1]
    return trimmed(a)


def ref_sqrt2(c):
    """The square root over F_2 (squaring is additive there), or None."""
    c = trimmed(c)
    return None if any(c[1::2]) else c[::2]


def ref_format2(c, var):
    terms = ["1" if i == 0 else var if i == 1 else "%s^%d" % (var, i) for i in range(len(c) - 1, -1, -1) if c[i]]
    return "+".join(terms) or "0"


def f2_values(poly):
    return [c.coeffs[0] for c in poly.coeffs]


F2 = FIELDS[0]
f2_long_polys = st.lists(st.integers(0, 1), max_size=100)
WORD = [1] + [0] * 63 + [1]  # t^64 + 1


@PROPERTY
@given(f2_long_polys, f2_long_polys)
@example(WORD, WORD)
@example([1] * 90, [0, 1] * 40)
@example([0, 0, 1] * 30, [1, 1] + [0] * 60 + [1])
def test_packed_f2_polynomials_match_reference(ca, cb):
    a, b = Poly(F2, ca), Poly(F2, cb)
    assert f2_values(a) == trimmed(ca) and a.bits == sum(c << i for i, c in enumerate(ca))
    assert f2_values(a * b) == trimmed(ref_polymul(ca, cb, 2))
    assert f2_values(a + b) == trimmed(ref_polyadd(ca, cb, 2)) == f2_values(a - b)
    if any(cb):
        q, r = a.divmod(b)
        assert (f2_values(q), f2_values(r)) == ref_divmod2(ca, cb)
    assert f2_values(a.gcd(b)) == ref_gcd2(ca, cb)
    root = a.sqrt()
    assert (None if root is None else f2_values(root)) == ref_sqrt2(ca)
    assert f2_values((a * a).sqrt()) == trimmed(ca)
    assert a.format("t") == ref_format2(trimmed(ca), "t")
    assert (a == b) == (trimmed(ca) == trimmed(cb))
    same = Poly(F2, list(ca) + [0, 0])
    assert same == a and hash(same) == hash(a) and len({a, same, b}) == 1 + (a != b)


# -- Q(t), F_3(t), Q(sqrt 2), F_2[w]/(w^2+w+1) and F x F -------------------------


def mod(x, p):
    """x mod p, or x itself over Q (p is None)."""
    return x if p is None else x % p


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = mod(out[i + j] + x * y, p)
    return out


def poly_add(a, b, p):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return [mod(x + y, p) for x, y in zip(a, b)]


RATFUNC_FIELDS = {None: RationalFunctionField(QQ, "t"), 3: RationalFunctionField(FiniteField(3), "t")}


def ratfunc_pairs(p):
    coeff = st.integers(-3, 3) if p is None else st.integers(0, p - 1)
    polys = st.lists(coeff, max_size=4)
    return st.tuples(polys, polys.filter(lambda c: any(mod(x, p) for x in c)))


def ratfunc_elem(p, pair):
    F = RATFUNC_FIELDS[p]
    num, den = (F.poly_elem([F.base.from_int(c) for c in poly]) for poly in pair)
    return num / den


def coefficient_values(poly, p):
    return [c if p is None else c.coeffs[0] for c in poly.coeffs]


def same_fraction(x, pair, p):
    """x = num/den, checked as num(x) * den == num * den(x)."""
    num, den = pair
    xn, xd = coefficient_values(x.num, p), coefficient_values(x.den, p)
    return not any(poly_add(poly_mul(xn, den, p), poly_mul([-c for c in num], xd, p), p))


@PROPERTY
@given(st.sampled_from([None, 3]).flatmap(lambda p: st.tuples(st.just(p), *[ratfunc_pairs(p)] * 3)))
def test_rational_function_field_axioms_match_reference(case):
    p, pa, pb, pc = case
    F = RATFUNC_FIELDS[p]
    a, b, c = (ratfunc_elem(p, pair) for pair in (pa, pb, pc))
    assert same_fraction(a, pa, p)
    prod = (poly_mul(pa[0], pb[0], p), poly_mul(pa[1], pb[1], p))
    assert same_fraction(a * b, prod, p)
    total = (poly_add(poly_mul(pa[0], pb[1], p), poly_mul(pb[0], pa[1], p), p), prod[1])
    assert same_fraction(a + b, total, p)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == F.zero() and not (a - a) and a + (-a) == 0
    if a:
        assert a * (1 / a) == F.one()
        assert b / a * a == b


# (field, alpha, beta, p): w^2 = alpha w + beta over Q (p None) or F_p
QUADRATIC_EXTENSIONS = [
    (QuadraticFieldExtension(QQ, 0, 2), 0, 2, None),
    (QuadraticFieldExtension(FiniteField(2), 1, 1), 1, 1, 2),
]
SPLIT = SplitAlgebra(QQ)


def base_values(p):
    return st.fractions(min_value=-4, max_value=4, max_denominator=5) if p is None else st.integers(0, p - 1)


def pairs(p):
    return st.tuples(base_values(p), base_values(p))


def ref_ext_mul(x, y, alpha, beta, p):
    (a1, b1), (a2, b2) = x, y
    bb = b1 * b2
    return (mod(a1 * a2 + beta * bb, p), mod(a1 * b2 + a2 * b1 + alpha * bb, p))


def ext_elem(field, pair, p):
    lift = QQ.coerce if p is None else field.base.from_int
    return field.from_pair(lift(pair[0]), lift(pair[1]))


def ext_pair(x, p):
    return (x.a, x.b) if p is None else (x.a.coeffs[0], x.b.coeffs[0])


@PROPERTY
@given(st.sampled_from(QUADRATIC_EXTENSIONS).flatmap(lambda case: st.tuples(st.just(case), *[pairs(case[3])] * 3)))
def test_quadratic_extension_axioms_match_reference(case):
    (K, alpha, beta, p), pa, pb, pc = case
    a, b, c = (ext_elem(K, pair, p) for pair in (pa, pb, pc))
    assert ext_pair(a, p) == tuple(mod(x, p) for x in pa)
    assert ext_pair(a * b, p) == ref_ext_mul(pa, pb, alpha, beta, p)
    assert ext_pair(a + b, p) == (mod(pa[0] + pb[0], p), mod(pa[1] + pb[1], p))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == K.zero() and not (a - a) and a + (-a) == 0
    if a:
        inv = K.inv(a)
        assert ref_ext_mul(pa, ext_pair(inv, p), alpha, beta, p) == (1, 0)
        assert b / a * a == b


@PROPERTY
@given(pairs(None), pairs(None), pairs(None))
def test_split_algebra_axioms_match_reference(pa, pb, pc):
    a, b, c = (SPLIT.pair(*pair) for pair in (pa, pb, pc))
    assert (a * b).a == pa[0] * pb[0] and (a * b).b == pa[1] * pb[1]
    assert (a + b).a == pa[0] + pb[0] and (a + b).b == pa[1] + pb[1]
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == SPLIT.zero() and not (a - a) and a + (-a) == 0
    if SPLIT.is_invertible(a):
        assert a * (SPLIT.one() / a) == SPLIT.one()
        assert b / a * a == b
    else:
        with pytest.raises(ZeroDivisionError):
            b / a
