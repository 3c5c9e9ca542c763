"""Property tests of finite-field and F_2(t) arithmetic against integer reference arithmetic.

The reference works on coefficient tuples with plain integers mod p: schoolbook
products reduced by the modulus x^k - r(x) for F(p^k), and cross-multiplied
numerator/denominator pairs for F(2)(t).  It shares no code with albertkit.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from albertkit import FiniteField, RationalFunctionField  # noqa: E402

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
