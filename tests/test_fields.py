"""Field arithmetic, etale structure maps, and the linear solver contract."""

import itertools
from fractions import Fraction

import pytest
from conftest import seeded

from albertkit import (
    QQ,
    AlgebraError,
    EtaleQuadratic,
    FiniteField,
    NotEtale,
    QuadraticFieldExtension,
    RationalFunctionField,
    SplitAlgebra,
    make_etale_quadratic,
)
from albertkit.f2poly import F2Poly
from albertkit.fields import GFElem, Poly, RatFuncElem, solve_additive_poly
from albertkit.jsonio import parse_field
from albertkit.linalg import kernel_basis, solve, units


F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
F9 = FiniteField(3, 2)
Qt = RationalFunctionField(QQ, "t")
F2t = RationalFunctionField(F2, "t")


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9])
def test_finite_field_axioms(field):
    elems = list(field.elements())
    assert len(elems) == field.order
    one = field.one()
    for a in elems:
        assert a + field.zero() == a
        assert a * one == a
        if a:
            assert a * field.inv(a) == one
    for a in elems[:6]:
        for b in elems[:6]:
            assert a + b == b + a
            assert a * b == b * a


def test_frobenius_is_automorphism_f4():
    for a in F4.elements():
        for b in F4.elements():
            assert (a + b) * (a + b) == a * a + b * b


def test_rational_function_field_exact():
    t = Qt.gen()
    x = (t * t - 1) / (t + 1)
    assert x == t - 1
    assert Qt.is_square((t + 1) * (t + 1))
    assert not Qt.is_square(t)
    y = Qt.sqrt((t * t + 2 * t + 1))
    assert y * y == t * t + 2 * t + 1


def test_quadratic_extension_name_drops_zero_and_unit_coefficients():
    F4 = FiniteField(2, 2)
    F2t = RationalFunctionField(FiniteField(2), "t")
    t = F2t.gen()
    assert QuadraticFieldExtension(QQ, 0, 2).name == "Q[w]/(w^2-2)"
    assert QuadraticFieldExtension(QQ, 1, 1).name == "Q[w]/(w^2-w-1)"
    assert QuadraticFieldExtension(QQ, -1, 3).name == "Q[w]/(w^2+w-3)"
    assert QuadraticFieldExtension(QQ, 2, -3).name == "Q[w]/(w^2-2*w+3)"
    assert QuadraticFieldExtension(FiniteField(5), 0, 2).name == "F(5)[w]/(w^2+3)"
    assert QuadraticFieldExtension(F4, 1, F4.gen()).name == "F(4)[w]/(w^2+w+u)"
    assert QuadraticFieldExtension(F2t, 1, t).name == "F(2)(t)[w]/(w^2+w+t)"
    # a coefficient of more than one term is bracketed
    with pytest.raises(AlgebraError, match=r"w\^2\+\(t\+1\)\*w\+t splits"):
        QuadraticFieldExtension(F2t, t + 1, t)


def test_quadratic_extension_inverse_and_sqrt():
    K = QuadraticFieldExtension(QQ, 0, 2)
    w = K.gen()
    rng = seeded(7)
    for _ in range(200):
        x = K.random_element(rng, 6)
        if not x:
            continue
        assert x * K.inv(x) == K.one()
    assert K.is_square(K.from_int(2))
    assert K.sqrt(K.from_int(2)) in (w, -w)
    assert not K.is_square(K.from_int(3))


def test_monic_quadratic_roots():
    assert QQ.monic_quadratic_roots(-3, 2) == [1, 2]
    assert QQ.monic_quadratic_roots(0, 1) == []
    t = Qt.gen()
    roots = Qt.monic_quadratic_roots(-(t + (t + 1)), t * (t + 1))
    assert sorted(r == t for r in roots).count(True) == 1
    # characteristic 2: Artin-Schreier reduction
    tt = F2t.gen()
    roots = F2t.monic_quadratic_roots(F2t.one(), tt * tt + tt)
    assert roots and all(r * r + r == tt * tt + tt for r in roots)


def test_solve_additive_poly():
    m = Poly(F2, (0, 1))  # t
    # W^2 + t W = t^4 + t^3  has W = t^2 (t^4 + t^3 = t^4 + t*t^2? no: check)
    N = Poly(F2, (0, 0, 0, 1, 1))
    sols = solve_additive_poly(F2, m, N)
    for W in sols:
        assert (W * W + m * W + N).is_zero()


def test_polynomials_over_f2_are_packed():
    assert isinstance(Poly(F2, (1, 0, 1)), F2Poly) and Poly(F2, (1, 0, 1)).bits == 0b101
    assert isinstance(F2t.gen().num, F2Poly) and isinstance(F2t.one().den, F2Poly)
    for base in (F3, F4, QQ):
        assert type(Poly(base, (1, 0, 1))) is Poly
        assert type(RationalFunctionField(base, "t").gen().num) is Poly


def test_f2_function_field_arithmetic_runs_on_packed_bits(monkeypatch):
    def refuse(*args):
        raise AssertionError("F(2) scalar arithmetic in F(2)(t)")

    t = F2t.gen()
    big = (t * t * t + t + 1) * (t * t + 1)
    for _ in range(4):
        big = big * big + t  # a polynomial of degree 80: past one machine word
    values = [t, t + 1, (t * t * t + t + 1) / (t * t + 1), 1 / (t * t + t + 1), big]
    monkeypatch.setattr(FiniteField, "_mul", refuse)
    monkeypatch.setattr(GFElem, "__add__", refuse)
    for a in values:
        for b in values[:4]:
            assert (a + b) - b == a and (a * b) / b == a and (a / b) * b == a
            assert a * a + b * b == (a + b) * (a + b)
    assert big.num.gcd(big.num * (t * t + t + 1).num) == big.num
    # for a polynomial d the descent of Y^2 + Y = d takes square roots of leading terms only
    for y in (t, t * t + t + 1, t * t * t * t * t + t * t, big):
        assert set(F2t._artin_schreier_roots(y * y + y)) == {y, y + 1}
    for d in (t, t * t, (t * t * t * t + t) / (t * t)):
        assert F2t._artin_schreier_roots(d) == []


def test_make_etale_examples():
    K = make_etale_quadratic(QQ, (0, 2))
    w = K.w
    assert K.gamma(w) == -w
    K4 = make_etale_quadratic(F2, (1, 1))
    assert K4.w * K4.w == K4.w + K4.ring.one()
    assert K4.gamma(K4.w) == K4.w + K4.ring.one()
    with pytest.raises(NotEtale):
        make_etale_quadratic(F2, (0, 1))


def test_split_presentation_of_split_polynomial():
    # x^2 - 1 splits over Q: the etale algebra degenerates to Q x Q
    K = make_etale_quadratic(QQ, (0, 1))
    assert K.kind == "split"


@pytest.mark.parametrize(
    "ext",
    [
        EtaleQuadratic(QQ, (0, 2)),
        EtaleQuadratic(QQ, "split"),
        EtaleQuadratic(F2, (1, 1)),
        EtaleQuadratic(F3, (0, -1)),
        EtaleQuadratic(F2t, (1, F2t.gen())),
    ],
)
def test_etale_invariants(ext):
    rng = seeded(11)
    base = ext.base
    one = ext.one()
    for _ in range(500):
        x = ext.random_element(rng, 4)
        assert ext.gamma(ext.gamma(x)) == x
        a, b = ext.coords(x)
        fixed = ext.gamma(x) == x
        assert fixed == base.is_zero(b)
        # trace and norm land in the base field by construction; check the
        # defining quadratic x^2 - T x + N = 0
        T = ext.trace(x)
        N = ext.norm(x)
        lhs = x * x - ext.from_base(T) * x + ext.from_base(N) * one
        assert not lhs


def test_s_functional():
    K = EtaleQuadratic(QQ, (0, 2))
    assert K.s(K.from_pair(3, 5)) == 5
    assert K.s(K.one()) == 0
    K4 = EtaleQuadratic(F2, (1, 1))
    assert K4.s(K4.one()) == F2.zero()
    assert K4.s(K4.w) == F2.one()
    Ks = EtaleQuadratic(QQ, "split")
    assert Ks.s(Ks.ring.pair(1, 1)) == 0
    assert Ks.s(Ks.ring.pair(0, 1)) == 1
    rng = seeded(3)
    for _ in range(100):
        x, y = K.random_element(rng), K.random_element(rng)
        lam, mu = QQ.random_element(rng), QQ.random_element(rng)
        combo = K.from_base(lam) * x + K.from_base(mu) * y
        assert K.s(combo) == lam * K.s(x) + mu * K.s(y)


def test_kappa():
    K = EtaleQuadratic(QQ, (0, 2))
    k = K.kappa()
    assert K.gamma(k) == -k and k
    assert K.s(k) != 0
    assert EtaleQuadratic(F2, (1, 1)).kappa() == EtaleQuadratic(F2, (1, 1)).ring.one()
    ks = EtaleQuadratic(QQ, "split").kappa()
    assert (ks.a, ks.b) == (1, -1)


def test_solve_linear_contract():
    ident = [(QQ.one(), QQ.zero()), (QQ.zero(), QQ.one())]
    assert kernel_basis(ident, QQ, 2) == []
    zero2 = [(F2.zero(), F2.zero()), (F2.zero(), F2.zero())]
    assert kernel_basis(zero2, F2, 2) == units(F2, 2)
    rows = [(QQ.one(), QQ.one()), (QQ.zero(), QQ.zero())]
    sol = solve(rows, (QQ.one(), QQ.zero()), QQ)
    assert sol[0] + sol[1] == 1
    assert solve(rows, (QQ.zero(), QQ.one()), QQ) is None


def test_context_mixing_is_hard_fault():
    with pytest.raises(AlgebraError):
        F3.one() + F5.one()
    with pytest.raises(AlgebraError):
        Qt.gen() * RationalFunctionField(QQ, "s").gen()
    K2 = QuadraticFieldExtension(QQ, 0, 2)
    K3 = QuadraticFieldExtension(QQ, 0, 3)
    with pytest.raises(AlgebraError):
        K2.gen() - K3.gen()
    with pytest.raises(AlgebraError):
        K2.gen() / F5.one()
    QxQ = SplitAlgebra(QQ)
    F3xF3 = SplitAlgebra(F3)
    with pytest.raises(AlgebraError):
        QxQ.one() * F3xF3.one()
    with pytest.raises(AlgebraError):
        QxQ.one() - K2.one()
    # the reflected operators coerce ints and keep the element's context
    for field, x in ((F9, F9.gen()), (Qt, Qt.gen() + 1), (K2, K2.gen()), (QxQ, QxQ.pair(2, 3))):
        assert field.coerce(1 - x) == field.one() - x  # coerce rejects a foreign context
        assert field.coerce(1 / x) == field.one() / x
        assert x - 1 == -(1 - x)
        assert (1 / x) * x == field.one()


def test_finite_field_elements_are_canonical():
    F16 = FiniteField(2, 4)
    elems = list(F16.elements())
    assert F16.one() is F16.one() and F16.zero() is F16.from_int(2)
    for a in elems:
        assert -a is a and a - a is F16.zero()
        for b in elems:
            assert a * b is b * a and a + b is b + a
        if a:
            assert F16.inv(F16.inv(a)) is a
    assert len(F16._elems) <= F16.order
    assert set(map(id, elems)) == set(map(id, F16._elems.values()))


def test_equal_finite_fields_still_mix():
    A, B = FiniteField(3), FiniteField(3)
    assert A is not B and A == B
    a, b = A.from_int(2), B.from_int(2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a + b == A.one() and b * a == B.one() and a - b == 0
    assert A.coerce(b) is b and B.is_zero(a - b)
    At, Bt = RationalFunctionField(A, "t"), RationalFunctionField(B, "t")
    assert At.gen() + At.from_base(a) == Bt.gen() - Bt.from_base(b + b)
    assert At.from_base(b) * Bt.from_base(a) == 1


def test_reducible_modulus_is_refused():
    # w^6 + w^5 + w = w (w^2 + w + 1) (w^3 + w + 1): x^(2^6) = x holds, x^(2^j) != x for j < 6
    with pytest.raises(AlgebraError):
        parse_field("F(64):w^6+w^5+w")
    with pytest.raises(AlgebraError):
        FiniteField(3, 2, reduction=(1, 0))  # x^2 - 1
    assert parse_field("F(64):w^6+w+1").order == 64


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2)])
def test_irreducibility_check_matches_trial_division(p, k):
    Fp = FiniteField(p)

    def monic(low):
        return Poly(Fp, tuple(low) + (1,))

    small = [monic(low) for d in range(1, k // 2 + 1) for low in itertools.product(range(p), repeat=d)]
    for reduction in itertools.product(range(p), repeat=k):
        f = monic(tuple(-c for c in reduction))
        irreducible = all(not f.divmod(g)[1].is_zero() for g in small)
        try:
            FiniteField(p, k, reduction=reduction)
            accepted = True
        except AlgebraError:
            accepted = False
        assert accepted == irreducible, (p, k, reduction)


def _enumerated_roots(field, b, c):
    return sorted((a for a in field.elements() if a * a + b * a + c == field.zero()), key=field.element_index)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_quadratic_roots_match_enumeration(p, k):
    field = FiniteField(p, k)
    elems = list(field.elements())
    for b in elems:
        for c in elems:
            assert field.monic_quadratic_roots(b, c) == _enumerated_roots(field, b, c)
    for x in elems:
        roots = [a for a in elems if a * a == x]
        if roots:
            assert field.sqrt(x) is roots[0]  # the first root in enumeration order, as before
        else:
            with pytest.raises(ValueError):
                field.sqrt(x)


@pytest.mark.parametrize("base,alpha,beta", [(F3, 0, -1), (F5, 0, 2), (F3, 1, 1), (F2, 1, 1)])
def test_extension_quadratic_roots_match_enumeration(base, alpha, beta):
    field = QuadraticFieldExtension(base, alpha, beta)
    elems = list(field.elements())
    for b in elems:
        for c in elems:
            assert field.monic_quadratic_roots(b, c) == _enumerated_roots(field, b, c)


def test_quadratic_roots_do_not_enumerate_a_large_field():
    import time

    field = FiniteField(65521)
    start = time.perf_counter()
    roots = field.monic_quadratic_roots(0, 1)
    assert time.perf_counter() - start < 0.05
    assert [r * r for r in roots] == [field.from_int(-1)] * 2
    assert len(field._elems) < 1000  # enumerating would keep all 65521



F4t = RationalFunctionField(F4, "t")


def _polys(base, maxdeg, monic=False):
    """Every polynomial over a finite base of degree <= maxdeg; monic ones only if asked."""
    elems = list(base.elements())
    if not monic:
        return [Poly(base, c) for c in itertools.product(elems, repeat=maxdeg + 1)]
    return [Poly(base, c + (base.one(),)) for d in range(maxdeg + 1) for c in itertools.product(elems, repeat=d)]


def _artin_schreier_table(field):
    """d -> its roots y, by brute force over y = u/v with deg u <= 2 and v monic of degree <= 1.

    Y^2 + Y = d needs den(d) = v^2 for a root u/v in lowest terms, and then
    u^2 + v u = num(d) bounds deg u by 2 when num(d) has degree <= 4 and
    den(d) degree <= 2: the table holds every root of every such d.
    """
    table = {}
    for u in _polys(field.base, 2):
        for v in _polys(field.base, 1, monic=True):
            y = RatFuncElem(field, u, v)
            table.setdefault(y * y + y, set()).add(y)
    return table


@pytest.mark.parametrize("field", [F2t, F4t], ids=["F2t", "F4t"])
def test_char2_function_field_roots_match_brute_force(field, monkeypatch):
    base, table = field.base, _artin_schreier_table(field)
    squares = [v * v for v in _polys(base, 1, monic=True)]
    # every numerator of degree <= 4 over the square denominators, the only ones with roots;
    # over F_4 the other monic denominators of degree <= 2 get the numerators of degree <= 2
    cases = [(num, den) for den in squares for num in _polys(base, 4)]
    cases += [
        (num, den)
        for den in _polys(base, 2, monic=True)
        if den not in squares
        for num in _polys(base, 4 if base.order == 2 else 2)
    ]
    solved = []
    monic_quadratic_roots = FiniteField.monic_quadratic_roots

    def counted(self, b, c):
        solved.append((b, c))  # only solve_additive_poly's dN == 2 dm branch calls it on the base
        return monic_quadratic_roots(self, b, c)

    monkeypatch.setattr(FiniteField, "monic_quadratic_roots", counted)
    kinds = set()
    for num, den in cases:
        d = RatFuncElem(field, num, den)
        roots = field.monic_quadratic_roots(1, d)  # X^2 + X + d: Y^2 + Y = d in characteristic 2
        assert roots == sorted(table.get(d, ()), key=field._root_key), d
        kinds.add((d.den.degree > 0, len(roots)))
    # rational and polynomial d, each with and without roots, and the dN == 2 dm branch
    assert kinds == {(False, 0), (False, 2), (True, 0), (True, 2)}
    assert solved
    # b = 0 (r = s) and c = 0 (r = 0): X^2 + (r + s) X + r s has the roots r and s
    t = field.gen()
    values = [field.zero(), field.one(), t, t / (t * t + 1), (t * t + t + 1) / (t + 1), 1 / (t * t * t)]
    for r in values:
        for s in values:
            assert field.monic_quadratic_roots(r + s, r * s) == sorted({r, s}, key=field._root_key)


def test_char2_function_field_roots_enumerate_no_field(monkeypatch):
    def refuse(self):
        raise AssertionError("%s enumerated" % self.name)

    monkeypatch.setattr(FiniteField, "elements", refuse)
    for field in (F2t, F4t):
        t = field.gen()
        for r, s in ((t, t + 1), (t / (t + 1), t * t), (t * t + t, 1 / (t * t + t + 1)), (t + 1, t + 1)):
            assert field.monic_quadratic_roots(r + s, r * s) == sorted({r, s}, key=field._root_key)
        assert field.monic_quadratic_roots(1, t) == []
    u = F4.gen()
    # W^2 + m W = N from a chosen W: the top term of W by square root, by quotient and, where
    # 2 deg W = deg m + deg W, as a root of a quadratic over F_4
    for m, W in (((u, 1), (0, 1, u)), ((1,), (u, 1)), ((1, 1), (1, u)), ((), (0, u)), ((0, 0, 1), (1,))):
        m, W = Poly(F4, m), Poly(F4, W)
        roots = solve_additive_poly(F4, m, W * W + m * W)
        assert sorted(map(repr, roots)) == sorted({repr(W), repr(W + m)})


def test_char2_extension_of_function_field_roots():
    # Y^2 + Y = d splits into two quadratics over F_2(t): any base in characteristic 2 works
    K = QuadraticFieldExtension(F2t, 1, F2t.gen())
    t, w = K.from_base(F2t.gen()), K.gen()
    values = [K.zero(), K.one(), w, t + w, w * w * w, K.from_base(1 / (F2t.gen() + 1)) * w]
    for r in values:
        for s in values:
            roots = K.monic_quadratic_roots(r + s, r * s)
            assert len(roots) == len({r, s}) and all(x == r or x == s for x in roots)
    inseparable = QuadraticFieldExtension(F2t, 0, F2t.gen())
    with pytest.raises(AlgebraError):
        inseparable.monic_quadratic_roots(1, inseparable.gen())


def test_char2_finite_field_roots_build_no_field(monkeypatch):
    F16 = FiniteField(2, 4)
    built = []
    init = FiniteField.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteField, "__init__", counted)
    for field in (F4, F16):
        elems = list(field.elements())
        for i in range(100):
            b, c = elems[1 + i % (len(elems) - 1)], elems[i % len(elems)]  # b != 0: Y^2 + Y = c/b^2
            assert field.monic_quadratic_roots(b, c) == _enumerated_roots(field, b, c)
    assert built == []
    FiniteField(2, 3)
    assert built == [(2, 3)]  # the irreducibility check runs over the one shared F(2)


# recorded before the solver was made one; each string is one case's roots, in order
GOLDEN_ROOTS = {
    "Q": (
        "0", "", "", "", "-1 0", "", "-2 1", "", "0 2", "1", "", "", "-1/3 0", "", "", "", "0", "0 1",
        "-2 0", "0 1/3", "1", "-2 1", "1/3 1", "-2", "-2 1/3", "1/3",
    ),
    "Q(t)": (
        "0", "", "", "", "0 -1", "", "", "", "0 -1*t", "", "", "", "0 (-1*t-1)/(t-1)", "", "", "", "0",
        "0 1", "0 t", "0 (t+1)/(t-1)", "1", "1 t", "1 (t+1)/(t-1)", "t", "t (t+1)/(t-1)",
        "(t+1)/(t-1)",
    ),
    "F(9)": (
        "0", "u 2*u", "1+u 2+2*u", "", "0 2", "1", "", "", "0 2*u", "1+u 2+u", "", "2 1+2*u",
        "0 1+2*u", "", "2+u", "u 1+u", "0", "0 1", "0 u", "0 2+u", "1", "1 u", "1 2+u", "u", "u 2+u",
        "2+u",
    ),
    "F(8)": (
        "0", "1", "u+u^2", "u", "0 1", "", "u^2 1+u^2", "u+u^2 1+u+u^2", "0 u", "", "", "", "0 u^2",
        "", "1+u 1+u+u^2", "", "0", "0 1", "0 u", "0 u^2", "1", "1 u", "1 u^2", "u", "u u^2", "u^2",
    ),
    "F(2)(t)": (
        "0", "1", "", "", "0 1", "", "", "", "0 t", "", "", "", "0 (t)/(t^2+t+1)", "", "", "", "0",
        "0 1", "0 t", "0 (t)/(t^2+t+1)", "1", "1 t", "1 (t)/(t^2+t+1)", "t", "t (t)/(t^2+t+1)",
        "(t)/(t^2+t+1)",
    ),
    "Q(sqrt2)": (
        "0", "", "", "", "0 -1", "", "", "", "0 -1*w", "", "", "", "0 -1/2-1*w", "", "", "", "0",
        "1 0", "w 0", "1/2+w 0", "1", "w 1", "1/2+w 1", "w", "1/2+w w", "1/2+w",
    ),
    "F(4)[w]": (
        "0", "1", "1+u+w", "u+1+u*w", "0 1", "u 1+u", "u+u*w 1+u+u*w", "", "0 w", "", "",
        "1+u+u*w 1+u+1+u*w", "0 u*w", "", "1+w 1+1+u*w", "", "0", "0 1", "0 w", "0 u*w", "1", "1 w",
        "1 u*w", "w", "w u*w", "u*w",
    ),
}


def _golden_grid():
    F4w = QuadraticFieldExtension(F4, 1, F4.gen())
    Q2 = QuadraticFieldExtension(QQ, 0, 2)
    F8, t, s = FiniteField(2, 3), Qt.gen(), F2t.gen()
    return {
        "Q": [QQ.zero(), QQ.one(), QQ.from_int(-2), Fraction(1, 3)],
        "Q(t)": [Qt.zero(), Qt.one(), t, (t + 1) / (t - 1)],
        "F(9)": [F9.zero(), F9.one(), F9.gen(), F9.gen() + 2],
        "F(8)": [F8.zero(), F8.one(), F8.gen(), F8.gen() * F8.gen()],
        "F(2)(t)": [F2t.zero(), F2t.one(), s, s / (s * s + s + 1)],
        "Q(sqrt2)": [Q2.zero(), Q2.one(), Q2.gen(), Q2.gen() + Q2.from_base(Fraction(1, 2))],
        "F(4)[w]": [F4w.zero(), F4w.one(), F4w.gen(), F4w.gen() * F4w.from_base(F4.gen())],
    }


@pytest.mark.parametrize("name", list(GOLDEN_ROOTS))
def test_quadratic_roots_match_golden_lists(name):
    values = _golden_grid()[name]
    field = QQ if name == "Q" else values[1].field
    cases = [(b, c) for b in values for c in values]
    cases += [(-(r + q), r * q) for i, r in enumerate(values) for q in values[i:]]
    got = tuple(" ".join(str(r) for r in field.monic_quadratic_roots(b, c)) for b, c in cases)
    assert got == GOLDEN_ROOTS[name]
