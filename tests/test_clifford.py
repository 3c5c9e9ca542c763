"""Clifford algebras, Arf triviality, and the rank-64 isomorphism check."""

import dataclasses
import types
from fractions import Fraction

import pytest
from conftest import seeded
from reference import (
    CliffordAlgebra,
    DimensionCap,
    center_of_span,
    clifford_arf,
    even_part_masks,
    f_as_matrix,
    isometric_embedding,
    m2_mul,
    monomial_rows_m2,
    rationally_equivalent,
)

import albertkit
from albertkit import (
    QQ,
    FiniteField,
    QuadraticForm,
    QuaternionAlgebra,
    RationalFunctionField,
    albert_form,
    arf_trivial,
    build_corestriction,
    clifford_iso_check,
    etale_quadratic,
    generate_instance,
    linalg,
)
from albertkit.clifford import (
    _PRIMES,
    _apply,
    _monomial_rows,
    _reduced_rows,
    _reductions,
)
from albertkit.corestriction import cor_f_basis, f_product
from albertkit.errors import AlgebraError, RankDeficient, RelationViolation

F2 = FiniteField(2)
F3 = FiniteField(3)


def test_dim_one_clifford():
    # the package attribute is the submodule, not a function shadowing it
    assert isinstance(albertkit.clifford, types.ModuleType)
    C = CliffordAlgebra(QuadraticForm.diagonal(QQ, [5]))
    e = C.generator(0)
    assert (e * e).coeff(0) == 5
    assert C.dim == 2


def test_dimension_cap():
    with pytest.raises(DimensionCap):
        CliffordAlgebra(QuadraticForm.diagonal(QQ, [1] * 7))


def test_hyperbolic_plane_clifford_splits():
    C = CliffordAlgebra(QuadraticForm.hyperbolic_plane(QQ))
    assert C.dim == 4
    e1, e2 = C.generator(0), C.generator(1)
    z = e1 * e2
    # e1 e2 is idempotent: (e1 e2)^2 = e1 (polar - e1 e2) e2 = e1 e2
    assert (z * z - z).is_zero()
    assert not z.is_zero() and not (z - C.one()).is_zero()


@pytest.mark.parametrize(
    "field,entries",
    [(QQ, [1, -1, 2]), (F2, None), (F3, [1, 1, 2, 1])],
)
def test_associativity_exhaustive(field, entries):
    if entries is None:
        form = QuadraticForm.binary(field, 1, 1).orthogonal_sum(
            QuadraticForm.binary(field, 0, 1)
        )
    else:
        form = QuadraticForm.diagonal(field, entries)
    C = CliffordAlgebra(form)
    masks = list(range(C.dim))
    for a in masks:
        for b in masks:
            ab = C.mul_masks(a, b)
            for c in masks:
                lhs = {}
                for m, co in ab.items():
                    for m2, co2 in C.mul_masks(m, c).items():
                        lhs[m2] = lhs.get(m2, field.zero()) + co * co2
                rhs = {}
                bc = C.mul_masks(b, c)
                for m, co in bc.items():
                    for m2, co2 in C.mul_masks(a, m).items():
                        rhs[m2] = rhs.get(m2, field.zero()) + co2 * co
                lhs = {m: v for m, v in lhs.items() if not field.is_zero(v)}
                rhs = {m: v for m, v in rhs.items() if not field.is_zero(v)}
                assert lhs == rhs


def test_even_part_and_center():
    form = QuadraticForm.hyperbolic_plane(QQ).orthogonal_sum(
        QuadraticForm.diagonal(QQ, [1, -1])
    )
    C = CliffordAlgebra(form)
    masks = even_part_masks(C)
    assert len(masks) == C.dim // 2
    center = center_of_span(C, masks)
    assert len(center) == 2


def test_arf_examples():
    trivial, cert = arf_trivial(QuadraticForm.hyperbolic_plane(QQ))
    assert trivial and cert["center_split"]
    r, p, q = cert["root"], cert["p"], cert["q"]
    assert r * r - p * r - q == 0
    trivial, cert = arf_trivial(QuadraticForm.diagonal(QQ, [1, 1]))
    assert not trivial
    # characteristic 2: [1,1] has nontrivial Arf over F2, [0,0] trivial
    trivial, _ = arf_trivial(QuadraticForm.binary(F2, 1, 1))
    assert not trivial
    trivial, _ = arf_trivial(QuadraticForm.hyperbolic_plane(F2))
    assert trivial


def test_arf_scaling_invariance_char2():
    F4 = FiniteField(2, 2)
    form = QuadraticForm.binary(F4, F4.one(), F4.gen())
    base, _ = arf_trivial(form)
    for c in list(F4.elements())[1:]:
        scaled, _ = arf_trivial(form.scale(c))
        assert scaled == base


def test_center_constructed_matches_generic():
    rng = seeded(61)
    for field, dim in ((QQ, 4), (F3, 4), (F2, 4)):
        for _ in range(3):
            if field.char == 2:
                form = QuadraticForm.binary(field, field.random_element(rng), field.random_element(rng))
                form = form.orthogonal_sum(
                    QuadraticForm.binary(field, field.random_element(rng), field.random_element(rng))
                )
            else:
                entries = []
                for _ in range(dim):
                    while True:
                        c = field.random_element(rng)
                        if not field.is_zero(c):
                            break
                    entries.append(c)
                form = QuadraticForm.diagonal(field, entries)
            C = CliffordAlgebra(form)
            generic = center_of_span(C, even_part_masks(C))
            assert len(generic) == 2


def test_even_clifford_binary_and_norm_similarity():
    # the even Clifford algebra of [[2, 3], [0, -1]] is Q[X]/(X^2 - 3X - 2),
    # and the norm form of that algebra is c11 * form
    form = QuadraticForm(QQ, [[2, 3], [0, -1]])
    norm_form = QuadraticForm(QQ, [[1, 3], [0, -2]])
    scaled = form.scale(form.upper[0][0])
    emb = isometric_embedding(norm_form, scaled, height=6)
    assert emb is not None
    assert rationally_equivalent(norm_form, scaled)


def _arf_or_refusal(arf, form):
    try:
        return arf(form)
    except AlgebraError as exc:
        return type(exc), str(exc)


def _formula(form):
    trivial, cert = arf_trivial(form)
    if trivial:
        r = cert["root"]
        assert r * r - cert["p"] * r - cert["q"] == 0
    return trivial, cert["p"], cert["q"]


def _forms_of_this_file():
    """The forms that the tests above build, with Albert forms of the rank-64 instances."""
    F4 = FiniteField(2, 2)
    forms = [
        QuadraticForm.diagonal(QQ, [5]),
        QuadraticForm.diagonal(QQ, [1] * 7),
        QuadraticForm.hyperbolic_plane(QQ),
        QuadraticForm.diagonal(QQ, [1, -1, 2]),
        QuadraticForm.binary(F2, 1, 1).orthogonal_sum(QuadraticForm.binary(F2, 0, 1)),
        QuadraticForm.diagonal(F3, [1, 1, 2, 1]),
        QuadraticForm.hyperbolic_plane(QQ).orthogonal_sum(QuadraticForm.diagonal(QQ, [1, -1])),
        QuadraticForm.diagonal(QQ, [1, 1]),
        QuadraticForm.binary(F2, 1, 1),
        QuadraticForm.hyperbolic_plane(F2),
        QuadraticForm(QQ, [[2, 3], [0, -1]]),
        QuadraticForm(QQ, [[1, 3], [0, -2]]),
    ]
    form = QuadraticForm.binary(F4, F4.one(), F4.gen())
    forms += [form.scale(c) for c in list(F4.elements())[1:]]
    rng = seeded(61)
    for field in (QQ, F3, F2):
        for _ in range(3):
            if field.char == 2:
                blocks = [QuadraticForm.binary(field, field.random_element(rng), field.random_element(rng)) for _ in range(2)]
                forms.append(blocks[0].orthogonal_sum(blocks[1]))
            else:
                entries = []
                while len(entries) < 4:
                    c = field.random_element(rng)
                    if not field.is_zero(c):
                        entries.append(c)
                forms.append(QuadraticForm.diagonal(field, entries))
    for kind in ((0, 2), "split"):
        ext = etale_quadratic(QQ, kind)
        K = ext
        forms.append(albert_form(ext, QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1))).form)
    return forms


def test_arf_formula_matches_the_clifford_reference():
    # the same verdict and (p, q), or the same refusal, as the center of the
    # even Clifford algebra on this file's forms and the 200 batch Albert forms
    from test_acceptance import BATCH

    forms = _forms_of_this_file()
    for family, seed in BATCH:
        _, ext, Q = generate_instance(family, seed).build()
        forms.append(albert_form(ext, Q).form)
    trivial = 0
    for form in forms:
        expected = _arf_or_refusal(clifford_arf, form)
        assert _arf_or_refusal(_formula, form) == expected, form
        trivial += expected[0] is True
    assert trivial >= 200


def test_clifford_iso_rank64():
    ext = etale_quadratic(QQ, (0, 2))
    K = ext
    Q = QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1))
    ad = albert_form(ext, Q)
    cor = build_corestriction(ext, Q)
    rep = clifford_iso_check(ad, cor)
    assert rep["rank"] == 64
    # split degeneration
    ext2 = etale_quadratic(QQ, "split")
    D = ext2
    Q2 = QuaternionAlgebra(D, D.zero(), D.from_int(-1), D.from_int(-1))
    ad2 = albert_form(ext2, Q2)
    cor2 = build_corestriction(ext2, Q2)
    rep2 = clifford_iso_check(ad2, cor2)
    assert rep2["rank"] == 64


def test_clifford_iso_check_rejects_broken_relations():
    ext = etale_quadratic(QQ, (0, 2))
    K = ext
    Q = QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1))
    ad = albert_form(ext, Q)
    cor = build_corestriction(ext, Q)
    # one corrupted Gram entry breaks a square or an anticommutation relation
    for i, j in ((0, 0), (1, 4)):
        rows = [list(row) for row in ad.form.upper]
        rows[i][j] = rows[i][j] + QQ.one()
        with pytest.raises(RelationViolation):
            clifford_iso_check(dataclasses.replace(ad, form=QuadraticForm(QQ, rows)), cor)
    # a y with T(Trd y) != 0 over F x F puts kappa (sigma (x) id)(xi) outside
    # the fixed algebra
    ext2 = etale_quadratic(QQ, "split")
    D = ext2
    Q2 = QuaternionAlgebra(D, D.zero(), D.from_int(-1), D.from_int(-1))
    ad2 = albert_form(ext2, Q2)
    bad = dataclasses.replace(ad2, y_basis=(ad2.y_basis[0] + Q2.one(),) + ad2.y_basis[1:])
    with pytest.raises(RelationViolation, match="leaves the fixed algebra"):
        clifford_iso_check(bad, build_corestriction(ext2, Q2))


def _counting_rank(monkeypatch):
    """Record (field, rank) of every linalg.rank call from now on."""
    calls = []
    exact = linalg.rank

    def rank(rows, field, ncols=None):
        out = exact(rows, field, ncols)
        calls.append((field, out))
        return out

    monkeypatch.setattr(linalg, "rank", rank)
    return calls


def _random_funcfield_matrix(F, rng, n, r):
    """An n x n product of random n x r and r x n matrices, some entries with denominators."""
    t = F.gen()

    def entry():
        num = F.poly_elem([F.base.from_int(rng.randint(0, 3)) for _ in range(3)])
        return num / (t + F.one()) if rng.random() < 0.3 else num

    left = [[entry() for _ in range(r)] for _ in range(n)]
    right = [[entry() for _ in range(n)] for _ in range(r)]
    return [tuple(sum((left[i][k] * right[k][j] for k in range(r)), F.zero()) for j in range(n)) for i in range(n)]


def _reduced_ranks(rows, field):
    """(order of E, rank of phi(rows)) for each ring map of _reductions defined on rows."""
    out = []
    for E, phi in _reductions(field):
        reduced = [_apply(phi, row) for row in rows]
        if None not in reduced:
            out.append((E.order, linalg.rank(reduced, E, len(rows[0]))))
    return out


def test_rank_certified_never_exceeds_the_exact_rank():
    F2t = RationalFunctionField(F2)
    t, one, zero = F2t.gen(), F2t.one(), F2t.zero()
    # the second row is t times the first; every point of F_2, F_4, F_8 and
    # F_16 sees rank at most 2
    rows = [(t, t + one, one), (t * t, t * t + t, t), (one, zero, one / (t * t + t + one))]
    assert linalg.rank(rows, F2t) == 2
    assert max(rank for _, rank in _reduced_ranks(rows, F2t)) == 2
    rng = seeded(71)
    for F in (F2t, RationalFunctionField(F3), RationalFunctionField(QQ)):
        for n, r in ((4, 4), (4, 3), (5, 2), (3, 1)):
            rows = _random_funcfield_matrix(F, rng, n, r)
            exact = linalg.rank(rows, F)
            assert exact <= r
            ranks = _reduced_ranks(rows, F)
            assert ranks and all(rank <= exact for _, rank in ranks)


def test_rank_certified_through_a_point_of_f8():
    # t, t + 1 and t^2 + t + 1 vanish at 0, 1 and the points of F_4
    F2t = RationalFunctionField(F2)
    t, one, zero = F2t.gen(), F2t.one(), F2t.zero()
    rows = [(t, zero, zero), (zero, t + one, zero), (zero, zero, t * t + t + one)]
    assert _reduced_ranks(rows, F2t)[:4] == [(2, 2), (2, 2), (4, 2), (8, 3)]


def test_clifford_check_makes_no_exact_funcfield_rank(monkeypatch):
    # the four split char2-function-field instances of acceptance criterion 5
    seeds = [s for s in range(40) if generate_instance("char2-function-field", s).k_spec == "split"][:4]
    assert len(seeds) == 4
    calls = _counting_rank(monkeypatch)
    for seed in seeds:
        _, ext, Q = generate_instance("char2-function-field", seed).build()
        ad = albert_form(ext, Q)
        cor = build_corestriction(ext, Q)
        del calls[:]
        assert clifford_iso_check(ad, cor)["rank"] == 64
        assert calls and not any(isinstance(field, RationalFunctionField) for field, _ in calls)


@pytest.mark.parametrize(
    "family,seed",
    [("split-K-over-Q", 0), ("quad-K-over-Q", 0), ("split-K-over-Qt", 0), ("char2-finite", 0), ("char2-function-field", 1)],
)
def test_reduced_images_are_the_images_reduced(family, seed):
    _, ext, Q = generate_instance(family, seed).build()
    ad = albert_form(ext, Q)
    cor = build_corestriction(ext, Q)
    fs = cor_f_basis(ad, cor)
    exact = _monomial_rows(cor, fs)
    E, phi = next(_reductions(ext.base))
    reduced = _reduced_rows(cor, fs, E, phi)
    assert reduced is not None
    assert [_apply(phi, row) for row in exact] == reduced


def test_rank_deficient_generator_reaches_the_exact_fallback(monkeypatch):
    # y_1 := y_0, with the (singular) form of the new list, keeps every
    # relation; the images have rank < 64 at every reduction and exactly
    ext = etale_quadratic(QQ, (0, 2))
    K = ext
    ad = albert_form(ext, QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1)))
    cor = build_corestriction(ext, ad.Q)
    U = [list(row) for row in ad.form.upper]
    U[0][1] = 2 * U[0][0]
    U[1] = [QQ.zero(), U[0][0]] + U[0][2:]
    bad = dataclasses.replace(ad, y_basis=(ad.y_basis[0],) + ad.y_basis[:1] + ad.y_basis[2:], form=QuadraticForm(QQ, U))
    calls = _counting_rank(monkeypatch)
    with pytest.raises(RankDeficient):
        clifford_iso_check(bad, cor)
    exact = [rank for field, rank in calls if field == QQ]
    assert len(exact) == 1 and exact[0] < 64
    reduced = [rank for field, rank in calls if field != QQ]
    assert len(reduced) >= len(_PRIMES) and max(reduced) < 64


def test_reduction_is_undefined_where_a_denominator_vanishes():
    E, phi = next(_reductions(QQ))
    p = E.p
    assert phi(Fraction(1, p)) is None and phi(Fraction(5, 3 * p)) is None
    assert phi(Fraction(p, 3)) is E.zero() and phi(Fraction(3, 2)) * E.from_int(2) is E.from_int(3)
    Qt = RationalFunctionField(QQ)
    t, one = Qt.gen(), Qt.one()
    E, phi = next(_reductions(Qt))
    assert phi(t / Qt.from_int(p)) is None
    t0 = phi(t)
    assert phi(one / (t - Qt.from_int(t0.coeffs[0]))) is None
    assert phi(one / (t - Qt.from_int(t0.coeffs[0] + p))) is None  # t0 mod p is a root
    assert phi((t * t + one) / (t + one)) == (t0 * t0 + 1) / (t0 + 1)


def test_rank_certified_never_exceeds_the_exact_rank_over_q():
    # det = product of the first k primes: rank 2 is lost at those and kept at the rest
    for k in range(len(_PRIMES) + 1):
        d = 1
        for p in _PRIMES[:k]:
            d *= p
        rows = [(Fraction(d), Fraction(1, 7)), (Fraction(0), Fraction(1))]
        assert _reduced_ranks(rows, QQ) == [(p, 1) for p in _PRIMES[:k]] + [(p, 2) for p in _PRIMES[k:]]
    rng = seeded(73)
    for n, r in ((4, 4), (4, 3), (5, 2), (3, 1), (6, 5)):
        left = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, _PRIMES[0]))) for _ in range(r)] for _ in range(n)]
        right = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
        rows = [tuple(sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)) for i in range(n)]
        exact = linalg.rank(rows, QQ)
        assert exact <= r
        ranks = _reduced_ranks(rows, QQ)
        assert ranks and all(rank <= exact for _, rank in ranks)


def _audit_instance(family):
    """(albert data, Cor) of the Hamilton instance or of seed 0 of a family."""
    if family == "hamilton":
        ext = etale_quadratic(QQ, (0, 2))
        K = ext
        Q = QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1))
    else:
        _, ext, Q = generate_instance(family, 0).build()
    return albert_form(ext, Q), build_corestriction(ext, Q)


AUDIT_INSTANCES = ["hamilton", "split-K-over-Q", "quad-K-over-Q", "split-K-over-Qt", "char2-finite", "char2-function-field"]


@pytest.mark.parametrize("family", AUDIT_INSTANCES)
def test_monomial_rows_match_the_2x2_products(family):
    # the pair rows are the rows of the 2x2 matrix products, coordinate for coordinate
    ad, cor = _audit_instance(family)
    fs = cor_f_basis(ad, cor)
    assert _monomial_rows(cor, fs) == monomial_rows_m2(cor, fs)


@pytest.mark.parametrize("family", AUDIT_INSTANCES)
def test_pair_rule_matches_the_2x2_product(family):
    # f(xi) (a, b) = (eta b, xi a) is [[0, eta], [xi, 0]] times diag(a, b)
    # (odd times even) and times [[0, a], [b, 0]] (odd times odd)
    ad, cor = _audit_instance(family)
    F, zero = cor.ring, cor.zero()
    rng = seeded(79)

    def element():
        return cor.elem([F.from_int(rng.randint(-3, 3)) for _ in range(16)])

    for f in cor_f_basis(ad, cor) + [(element(), element()) for _ in range(3)]:
        a, b = element(), element()
        (p, q), (r, s) = m2_mul(cor, f_as_matrix(cor, f), ((a, zero), (zero, b)))
        assert p.is_zero() and s.is_zero() and f_product(f, (a, b)) == (q, r)
        (p, q), (r, s) = m2_mul(cor, f_as_matrix(cor, f), ((zero, a), (b, zero)))
        assert q.is_zero() and r.is_zero() and f_product(f, (a, b)) == (p, s)
