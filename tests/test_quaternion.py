"""Quaternion algebras: arithmetic identities, norm forms, subalgebra search."""

import pytest
from conftest import seeded
from reference import check_associative, make_quaternion, quaternion_product

from albertkit import (
    QQ,
    FiniteField,
    QuadraticFieldExtension,
    QuaternionAlgebra,
    RationalFunctionField,
    etale_quadratic,
    find_disjoint_quadratic_subalgebra,
    is_split,
    norm_form,
    validate_disjoint_witness,
)
from albertkit.errors import InvalidWitness, NotEtale, ZeroParameter
from albertkit.harness import generate_instance
from albertkit.quaternion import QuatElem

F2 = FiniteField(2)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
K2 = QuadraticFieldExtension(QQ, 0, 2)

HAMILTON = QuaternionAlgebra(QQ, 0, -1, -1)
HAMILTON_K = QuaternionAlgebra(K2, K2.zero(), K2.from_int(-1), K2.from_int(-1))


def test_construction_guards():
    with pytest.raises(ZeroParameter):
        QuaternionAlgebra(QQ, 0, -1, 0)
    with pytest.raises(NotEtale):
        QuaternionAlgebra(F2, 0, 1, 1)  # alpha = 0 in characteristic 2
    with pytest.raises(NotEtale):
        QuaternionAlgebra(QQ, 0, 0, 1)  # discriminant zero


def test_hamilton_norm_form():
    nf = norm_form(HAMILTON)
    diag = [nf.upper[i][i] for i in range(4)]
    assert diag == [1, 1, 1, 1]
    assert nf.classify().nonsingular
    one = HAMILTON.one()
    assert one.nrd() == 1  # the norm form represents 1 at the identity


def test_f4_example_split():
    Q = QuaternionAlgebra(F4, F4.one(), F4.one(), F4.one())
    x = Q.elem((F4.one(), F4.zero(), F4.one(), F4.zero()))  # 1 + z
    assert F4.is_zero(x.nrd())
    verdict = is_split(Q)
    assert verdict.status == "split"
    zd = verdict.zero_divisor
    assert not zd.is_zero() and F4.is_zero(zd.nrd())


def test_split_algebra_over_finite_fields():
    for field, params in ((F5, (0, 2, 3)), (F4, (1, 0, 1))):
        Q = QuaternionAlgebra(field, *[field.coerce(c) for c in params])
        assert is_split(Q).status == "split"


def test_hamilton_division():
    assert is_split(HAMILTON).status == "division"
    assert is_split(HAMILTON_K).status == "division"


@pytest.mark.parametrize(
    "algebra",
    [
        QuaternionAlgebra(F5, 0, 2, 3),
        QuaternionAlgebra(F4, F4.one(), F4.gen(), F4.gen()),
        HAMILTON,
        HAMILTON_K,
    ],
)
def test_algebra_identities(algebra):
    rng = seeded(41)
    d = algebra.ring
    for _ in range(120):
        x = algebra.random_element(rng, 3)
        y = algebra.random_element(rng, 3)
        # quadratic Cayley-Hamilton
        ch = x * x - x.scale(x.trd()) + algebra.one().scale(x.nrd())
        assert ch.is_zero()
        assert x.nrd() * y.nrd() == (x * y).nrd()
        assert (x * y).trd() == (y * x).trd()
        assert x.conjugate().conjugate() == x
        assert x.nrd() == (x * x.conjugate()).coords[0]
        assert all(d.is_zero(c) for c in (x * x.conjugate()).coords[1:])


def _split_k_quaternions():
    """A quaternion algebra over F x F in characteristic 0 and one in characteristic 2."""
    S = etale_quadratic(QQ, "split")
    S2 = etale_quadratic(RationalFunctionField(F2, "t"), "split")
    t = S2.base.gen()
    return (
        QuaternionAlgebra(S, S.zero(), S.pair(2, -3), S.pair(-1, 5)),
        QuaternionAlgebra(S2, S2.pair(1, t), S2.pair(0, t + 1), S2.pair(t, 1)),
    )


def test_norm_form_multiplicativity():
    # over F x F too: the norm form is the pair of the components' norm forms
    for Q in (HAMILTON,) + _split_k_quaternions():
        nf = norm_form(Q)
        rng = seeded(43)
        for _ in range(60):
            x = Q.random_element(rng, 4)
            y = Q.random_element(rng, 4)
            assert nf.evaluate(x.coords) == x.nrd()
            assert nf.evaluate((x * y).coords) == nf.evaluate(x.coords) * nf.evaluate(y.coords)


def test_disjoint_witness_hamilton_over_Qsqrt2():
    ext = etale_quadratic(QQ, (0, 2))
    Q = HAMILTON_K
    i = Q.elem((K2.zero(), K2.one(), K2.zero(), K2.zero()))
    data = validate_disjoint_witness(Q, i, etale_required=True)
    assert data["trd"] == 0 and data["nrd"] == 1
    # scalars are rejected
    with pytest.raises(InvalidWitness):
        validate_disjoint_witness(Q, Q.one(), etale_required=False)
    w_scalar = Q.elem((K2.gen(), K2.zero(), K2.zero(), K2.zero()))
    with pytest.raises(InvalidWitness):
        validate_disjoint_witness(Q, w_scalar, etale_required=False)
    found = find_disjoint_quadratic_subalgebra(Q, etale_required=True, height=1)
    validate_disjoint_witness(Q, found, etale_required=True)


def test_k_independence_message_is_pinned():
    message = r"^\(1, x\) is not K-linearly independent$"
    # a draw of the harness search on split-K-over-Qt 3: Trd and Nrd lie in F,
    # but the first component of x is the scalar 0
    _F, ext, Q = generate_instance("split-K-over-Qt", 3).build()
    d = Q.ring
    x = Q.elem((d.zero(), d.zero(), d.pair(0, -1), d.pair(0, -1)))
    with pytest.raises(InvalidWitness, match=message):
        validate_disjoint_witness(Q, x, etale_required=False)
    with pytest.raises(InvalidWitness, match=message):
        validate_disjoint_witness(HAMILTON_K, HAMILTON_K.one(), etale_required=False)
    # the harness witness on split-K-over-Qt 6: each component is non-scalar, in different coordinates
    _F, ext, Q = generate_instance("split-K-over-Qt", 6).build()
    d = Q.ring
    x = Q.elem((d.zero(), d.pair(0, -1), d.zero(), d.pair(-1, 0)))
    assert validate_disjoint_witness(Q, x, etale_required=False) == {"trd": 0, "nrd": 3}


def test_trace_is_checked_before_the_norm(monkeypatch):
    # most draws of the subalgebra search fail on Trd, so Nrd is not computed for them
    def nrd(self):
        raise AssertionError("Nrd(x) computed before the trace check")

    monkeypatch.setattr(QuatElem, "nrd", nrd)
    x = HAMILTON_K.elem((K2.gen(), K2.one(), K2.zero(), K2.zero()))  # Trd(x) = 2 sqrt2
    with pytest.raises(InvalidWitness, match=r"^Trd\(x\) is not in F$"):
        validate_disjoint_witness(HAMILTON_K, x, etale_required=False)


def test_char2_etale_flag():
    # over F4/F2 a trace-zero generator is only a condition-(i) witness
    ext = etale_quadratic(F2, (1, 1))
    K4 = ext
    Q = QuaternionAlgebra(K4, K4.one(), K4.gen(), K4.one())
    z = Q.elem((K4.zero(), K4.zero(), K4.one(), K4.zero()))
    validate_disjoint_witness(Q, z, etale_required=False)
    with pytest.raises(InvalidWitness):
        validate_disjoint_witness(Q, z, etale_required=True)


def test_split_verdict_agrees_with_element_search():
    rng = seeded(47)
    for field in (F5, F4):
        elems = list(field.elements())
        for _ in range(6):
            while True:
                try:
                    alpha = rng.choice(elems)
                    beta = rng.choice(elems)
                    a = rng.choice(elems)
                    Q = QuaternionAlgebra(field, alpha, beta, a)
                    break
                except (NotEtale, ZeroParameter):
                    continue
            verdict = is_split(Q)
            # independent bounded element search for a zero divisor
            found = None
            for coords in _element_grid(field):
                x = Q.elem(coords)
                if not x.is_zero() and field.is_zero(x.nrd()):
                    found = x
                    break
            assert (verdict.status == "split") == (found is not None)


def _element_grid(field):
    import itertools

    return itertools.product(list(field.elements()), repeat=4)


def test_make_quaternion_from_etale():
    E = etale_quadratic(QQ, (0, -1))
    Q = make_quaternion(E, QQ.from_int(-1))
    assert norm_form(Q).upper[0][0] == 1
    Es = etale_quadratic(QQ, "split")
    Qs = make_quaternion(Es, QQ.from_int(5))
    # split E embeds zero divisors immediately: (1,0) is idempotent
    zd = Qs.elem((QQ.one(), QQ.zero(), QQ.zero(), QQ.zero()))
    idem = Qs.elem((QQ.zero(), QQ.one(), QQ.zero(), QQ.zero()))
    assert idem * idem == idem  # e^2 = e since x^2 - x splits


def test_associativity_is_an_identity_over_z():
    # Each structure constant is a polynomial with integer coefficients in
    # (alpha, beta, a) of degree at most (1, 1, 1), so one product raises
    # the degree of a coordinate by at most that much.  So each coordinate
    # of the associator of three basis elements has degree at most
    # (2, 2, 2), and of one * b - b at most (1, 1, 1).  A polynomial of
    # degree at most d_i in each variable that vanishes on S_1 x S_2 x S_3
    # with |S_i| > d_i is zero (Alon, Combinatorial Nullstellensatz, Lemma
    # 2.1).  On this grid every algebra is valid (alpha^2 + 4 beta > 0 and
    # a != 0), so the unit law and associativity hold over Z, hence over
    # every commutative ring, and the constructor need not check them.
    for alpha in range(1, 6):
        for beta in range(1, 4):
            for a in range(1, 4):
                check_associative(QuaternionAlgebra(QQ, alpha, beta, a))


def test_basis_table_matches_the_product_formula():
    # On two basis vectors, the product (its structure constants) and the
    # reference formula are each a polynomial over Z in (alpha, beta, a) of
    # degree at most (2, 1, 1): the formula's iota adds one alpha, its E
    # product one alpha or beta, the slot one a.  So agreement on this grid
    # is agreement over every commutative ring, and both are bilinear.
    D = etale_quadratic(QQ, "split")
    F2t = RationalFunctionField(F2)
    t = F2t.gen()
    algebras = [QuaternionAlgebra(QQ, alpha, beta, a) for alpha in range(1, 6) for beta in range(1, 4) for a in range(1, 4)]
    algebras += [
        QuaternionAlgebra(D, D.pair(0, 1), D.pair(-1, 2), D.pair(-1, 3)),
        QuaternionAlgebra(F2t, F2t.one(), t, t * t + F2t.one()),
        HAMILTON_K,
    ]
    for Q in algebras:
        for x in Q.basis():
            for y in Q.basis():
                assert (x * y).coords == quaternion_product(Q, x.coords, y.coords)


@pytest.mark.parametrize(
    "algebra",
    [
        # the four algebras of acceptance criterion 1
        QuaternionAlgebra(F5, 0, 2, 3),
        QuaternionAlgebra(F4, F4.one(), F4.gen(), F4.gen()),
        HAMILTON,
        HAMILTON_K,
    ],
)
def test_criterion_1_algebras_are_associative(algebra):
    check_associative(algebra)


def test_split_and_function_field_algebras_are_associative():
    D = etale_quadratic(QQ, "split")
    check_associative(QuaternionAlgebra(D, D.pair(0, 1), D.pair(-1, 2), D.pair(-1, 3)))
    F2t = RationalFunctionField(F2)
    t = F2t.gen()
    check_associative(QuaternionAlgebra(F2t, F2t.one(), t, t * t + F2t.one()))
