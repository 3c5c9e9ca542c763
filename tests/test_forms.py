"""Quadratic form machinery: polar forms, classification, lemma construction."""

import pytest
from conftest import random_nonsingular_form, seeded
from reference import (
    enumeration_isotropy,
    isometric_embedding,
    orthogonalize_by_elimination,
    symplectic_pairs_by_elimination,
)

from albertkit import (
    QQ,
    FiniteField,
    QuadraticForm,
    QuadraticFieldExtension,
    RationalFunctionField,
    albert_form,
    etale_quadratic,
    isotropic_spanning_set,
    orthogonalize,
    symplectic_pairs,
    vs_space,
)
from albertkit.errors import AlgebraError
from albertkit.forms import hyperbolic_partner, hyperbolic_split, line_point
from albertkit.harness import FAMILIES, generate_instance
from albertkit.isotropy import isotropy
from albertkit.linalg import combine, rank
from albertkit.transfer import transfer

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)
F4 = FiniteField(2, 2)
F2t = RationalFunctionField(F2, "t")


def test_polar_examples():
    phi = QuadraticForm(F2, [[1, 1], [0, 1]])  # x^2 + xy + y^2
    e1 = (F2.one(), F2.zero())
    e2 = (F2.zero(), F2.one())
    assert phi.polar(e1, e2) == F2.one()
    assert phi.polar(e1, e1) == F2.zero()  # char 2: polar(x, x) = 0
    over_q = QuadraticForm.diagonal(QQ, [1, 1])
    assert over_q.polar_matrix() == ((QQ.from_int(2), QQ.zero()), (QQ.zero(), QQ.from_int(2)))


def test_polar_bilinearity_random():
    rng = seeded(5)
    for field in (QQ, F3, F2, F4, F2t):
        dim = 3
        rows = [
            [field.random_element(rng) if j >= i else field.zero() for j in range(dim)]
            for i in range(dim)
        ]
        phi = QuadraticForm(field, rows)
        for _ in range(50):
            x = tuple(field.random_element(rng) for _ in range(dim))
            y = tuple(field.random_element(rng) for _ in range(dim))
            assert phi.evaluate(tuple(a + b for a, b in zip(x, y))) == (
                phi.evaluate(x) + phi.evaluate(y) + phi.polar(x, y)
            )
            lam = field.random_element(rng)
            assert phi.evaluate(tuple(lam * a for a in x)) == lam * lam * phi.evaluate(x)
            row = phi.polar_row(x)
            for j in range(dim):
                e_j = tuple(field.one() if i == j else field.zero() for i in range(dim))
                assert row[j] == phi.polar(x, e_j) == phi.polar(e_j, x)


def test_classify_examples():
    hyp = QuadraticForm.hyperbolic_plane(QQ)
    cls = hyp.classify()
    assert cls.nonsingular and cls.regular and cls.nondegenerate
    one_f2 = QuadraticForm.diagonal(F2, [1])
    cls = one_f2.classify()
    assert cls.regular and cls.nondegenerate and not cls.nonsingular
    sum_f2 = QuadraticForm.diagonal(F2, [1, 1])
    cls = sum_f2.classify()
    assert not cls.regular
    assert cls.rad_basis == ((F2.one(), F2.one()),)


def test_classify_implication_chain():
    rng = seeded(9)
    for field in (QQ, F3, F2, FiniteField(2, 2)):
        for _ in range(60):
            dim = rng.randint(1, 4)
            rows = [
                [field.random_element(rng, 2) if j >= i else field.zero() for j in range(dim)]
                for i in range(dim)
            ]
            cls = QuadraticForm(field, rows).classify()
            if cls.nonsingular:
                assert cls.nondegenerate
            if cls.nondegenerate:
                assert cls.regular
            if field.char != 2:
                assert cls.nonsingular == cls.regular == cls.nondegenerate


def test_restrict_scale_base_change():
    phi = QuadraticForm.diagonal(QQ, [1, 1, 1])
    sub = phi.restrict([(QQ.one(), QQ.zero(), QQ.zero())])
    assert sub.upper == ((QQ.one(),),)
    hyp = QuadraticForm.hyperbolic_plane(F5)
    for c in list(F5.elements())[1:]:
        scaled = hyp.scale(c)
        assert enumeration_isotropy(scaled).is_isotropic
        from albertkit.isotropy import witt_decompose

        assert witt_decompose(scaled).hyperbolic_count == 1
    K = QuadraticFieldExtension(QQ, 0, 2)
    lifted = QuadraticForm.diagonal(QQ, [1, 1]).base_change(K)
    assert isotropy(lifted).is_anisotropic  # stays definite over a real field
    with pytest.raises(AlgebraError):
        phi.restrict([(QQ.one(), QQ.zero(), QQ.zero()), (QQ.from_int(2), QQ.zero(), QQ.zero())])


def test_isometric_embedding_examples():
    psi = QuadraticForm.diagonal(QQ, [1])
    phi = QuadraticForm.diagonal(QQ, [1, 1])
    emb = isometric_embedding(psi, phi)
    assert emb is not None and phi.evaluate(emb[0]) == 1
    K = QuadraticFieldExtension(QQ, 0, 2)
    four = QuadraticForm.diagonal(K, [1, 1, 1, 1])
    emb = isometric_embedding(four, four, height=1)
    assert emb is not None
    # <2> embeds into <1,1> over F3 through (1,1)
    psi3 = QuadraticForm.diagonal(F3, [2])
    phi3 = QuadraticForm.diagonal(F3, [1, 1])
    emb = isometric_embedding(psi3, phi3)
    assert emb is not None and phi3.evaluate(emb[0]) == F3.from_int(2)
    # and nothing embeds a nonrepresented value: <2> into <1> over F3
    assert isometric_embedding(QuadraticForm.diagonal(F3, [2]), QuadraticForm.diagonal(F3, [1])) is None


def test_isotropic_spanning_examples():
    hyp = QuadraticForm.hyperbolic_plane(QQ)
    basis = isotropic_spanning_set(hyp, (QQ.one(), QQ.zero()))
    assert len(basis) == 2
    pm = QuadraticForm.diagonal(QQ, [1, -1])
    basis = isotropic_spanning_set(pm, (QQ.one(), QQ.one()))
    assert all(QQ.is_zero(pm.evaluate(v)) for v in basis)
    f5 = QuadraticForm.diagonal(F5, [1, 1])
    wit = enumeration_isotropy(f5).witness
    basis = isotropic_spanning_set(f5, wit)
    assert len(basis) == 2


def _split_fields():
    return (
        QQ,
        F5,
        F4,
        RationalFunctionField(QQ, "t"),
        F2t,
        QuadraticFieldExtension(QQ, 0, 2),
    )


@pytest.mark.parametrize("field", _split_fields(), ids=["Q", "F5", "F4", "Qt", "F2t", "Qsqrt2"])
def test_hyperbolic_split_line_point_and_complement(field):
    rng = seeded(31)
    zero, one = field.zero(), field.one()
    n = 4
    for _ in range(3):
        # H _|_ psi in a lower-unitriangular basis: e_0 stays isotropic
        phi = QuadraticForm.hyperbolic_plane(field).orthogonal_sum(random_nonsingular_form(field, 2, rng, size=3))
        P = [
            tuple(one if j == i else field.random_element(rng, 3) if j < i else zero for j in range(n))
            for i in range(n)
        ]
        form = phi.restrict(P)
        u = tuple(one if j == 0 else zero for j in range(n))
        zeta, comp = hyperbolic_split(form, u)
        assert hyperbolic_partner(form, u) == zeta
        assert field.is_zero(form.evaluate(zeta))
        assert form.polar(u, zeta) == one
        assert len(comp) == n - 2 and rank([u, zeta] + list(comp), field, n) == n
        for c in comp:
            assert field.is_zero(form.polar(u, c)) and field.is_zero(form.polar(zeta, c))
        assert comp == form.orthogonal_complement([u, zeta])
        # u is isotropic, so its own complement (dimension n - 1) contains it
        perp = form.orthogonal_complement([u])
        assert len(perp) == n - 1 and rank(perp + [u], field, n) == n - 1
        # the line through u and x meets the quadric again at line_point
        x = tuple(field.random_element(rng, 3) for _ in range(n))
        x = tuple(a + b for a, b in zip(x, zeta)) if field.is_zero(form.polar(u, x)) else x
        p = line_point(form, u, x)
        assert field.is_zero(form.evaluate(p))
        assert rank([tuple(a - b for a, b in zip(p, x)), u], field, n) == 1
        assert line_point(form, u, comp[0]) is None
        assert line_point(form, u, u) is None
        # a vector of the polar radical has no hyperbolic partner
        degenerate = form.orthogonal_sum(QuadraticForm.zero_form(field, 1))
        assert hyperbolic_split(degenerate, (zero,) * n + (one,)) is None
        assert hyperbolic_partner(degenerate, (zero,) * n + (one,)) is None


def test_orthogonalize_and_symplectic():
    rng = seeded(4)
    for _ in range(20):
        phi = random_nonsingular_form(QQ, 3, rng)
        basis = orthogonalize(phi)
        for i in range(3):
            for j in range(i + 1, 3):
                assert QQ.is_zero(phi.polar(basis[i], basis[j]))
    for _ in range(20):
        phi = random_nonsingular_form(F2, 4, rng)
        pairs = symplectic_pairs(phi)
        assert len(pairs) == 2
        for i, (u, g) in enumerate(pairs):
            assert phi.polar(u, g) == F2.one()
            for j in range(i + 1, 2):
                for v in pairs[j]:
                    assert F2.is_zero(phi.polar(u, v))
                    assert F2.is_zero(phi.polar(g, v))


# -- orthogonal and symplectic bases against the eliminating references -------


# fields of the differential test, with the largest dimension drawn over each
BASIS_FIELDS = [
    (QQ, 5),
    (F3, 5),
    (FiniteField(3, 2), 5),
    (QuadraticFieldExtension(QQ, 0, 2), 4),
    (RationalFunctionField(QQ, "t"), 3),
    (F2, 6),
    (F4, 6),
    (FiniteField(2, 3), 6),
    (F2t, 4),
]


def _random_upper_form(field, n, rng):
    """A random form of dimension n: dense, sparse, with a zero diagonal (the
    char != 2 basis then picks u + v) or with a zero row and column."""
    kind = rng.choice(("dense", "sparse", "zero-diagonal", "singular"))
    density = 0.3 if kind == "sparse" else 0.8
    rows = []
    for i in range(n):
        row = [field.zero()] * n
        for j in range(i, n):
            if j == i and kind == "zero-diagonal" or j > i and rng.random() > density:
                continue
            row[j] = field.random_element(rng, 3)
        rows.append(row)
    if kind == "singular":
        k = rng.randrange(n)
        for i in range(n):
            rows[i][k] = rows[k][i] = field.zero()
    return QuadraticForm(field, rows)


def _basis_or_error(routine, form):
    try:
        return routine(form)
    except AlgebraError as exc:
        return str(exc)


def test_bases_agree_with_the_eliminating_references():
    # 120 forms over each of the 9 fields
    rng = seeded(36)
    for field, max_dim in BASIS_FIELDS:
        routine, reference = (
            (symplectic_pairs, symplectic_pairs_by_elimination)
            if field.char == 2
            else (orthogonalize, orthogonalize_by_elimination)
        )
        for _ in range(120):
            # a nonsingular form has even dimension in characteristic 2
            n = 2 * rng.randint(1, max_dim // 2) if field.char == 2 else rng.randint(1, max_dim)
            form = _random_upper_form(field, n, rng)
            assert _basis_or_error(routine, form) == _basis_or_error(reference, form), form


def test_bases_run_no_elimination(rref_calls):
    rng = seeded(37)
    for field, max_dim in BASIS_FIELDS:
        for _ in range(10):
            form = _random_upper_form(field, max_dim, rng)
            if field.char == 2:
                _basis_or_error(symplectic_pairs, form)
            else:
                orthogonalize(form)
    assert rref_calls == []


def test_classify_is_computed_once(rref_calls):
    form = QuadraticForm.diagonal(QQ, [1, -2, 3])
    first = form.classify()
    assert form.classify() is first and len(rref_calls) == 1
    # a polar radical of dimension 3 over F_2(t) is refused on every call
    refused = QuadraticForm.diagonal(F2t, [1, F2t.gen(), F2t.gen() + 1])
    for _ in range(2):
        with pytest.raises(AlgebraError, match="dimension <= 2"):
            refused.classify()


# -- QuadraticForm.gram against the Gram loops it replaced ---------------------


def _restrict_reference(form, vectors):
    """phi(v_i) on the diagonal and polar(v_i, v_j) above it."""
    f = form.field
    m = len(vectors)
    rows = [[f.zero()] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = form.evaluate(vectors[i])
        for j in range(i + 1, m):
            rows[i][j] = form.polar(vectors[i], vectors[j])
    return QuadraticForm(f, rows)


def _transfer_reference(ext, phi):
    """s(phi) and s(polar) on the lifts (b_0, w b_0, b_1, w b_1, ...)."""
    K, F = ext, ext.base

    def lift(i):
        j, odd = divmod(i, 2)
        vec = [K.zero()] * phi.n
        vec[j] = ext.gen() if odd else K.one()
        return tuple(vec)

    N = 2 * phi.n
    lifts = [lift(i) for i in range(N)]
    rows = [[F.zero()] * N for _ in range(N)]
    for i in range(N):
        rows[i][i] = ext.s(phi.evaluate(lifts[i]))
        for j in range(i + 1, N):
            rows[i][j] = ext.s(phi.polar(lifts[i], lifts[j]))
    return QuadraticForm(F, rows)


def _nrd_polarisation(field, value, elems):
    """value(Nrd y_i) on the diagonal, value(Nrd(y_i + y_j) - Nrd y_i - Nrd y_j) above it."""
    m = len(elems)
    nrds = [y.nrd() for y in elems]
    rows = [[field.zero()] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = value(nrds[i])
        for j in range(i + 1, m):
            rows[i][j] = value((elems[i] + elems[j]).nrd() - nrds[i] - nrds[j])
    return QuadraticForm(field, rows)


def _albert_reference(ext, Q):
    kappa = ext.kappa()
    ys = vs_space(Q)
    return _nrd_polarisation(ext.base, lambda n: ext.in_base(kappa * (ext.conj(n) - n)), ys)


def test_gram_is_the_form_of_the_vectors():
    rng = seeded(61)
    for field in (QQ, F3, F2, F4, F2t, RationalFunctionField(QQ, "t")):
        phi = random_nonsingular_form(field, 4, rng, size=3)
        vecs = [tuple(field.random_element(rng, 3) for _ in range(4)) for _ in range(3)]
        form = phi.gram(vecs)
        assert form == _restrict_reference(phi, vecs)
        x = tuple(field.random_element(rng, 3) for _ in range(3))
        assert form.evaluate(x) == phi.evaluate(combine(x, vecs, field, 4))
    assert QuadraticForm.diagonal(QQ, [1]).gram([]) == QuadraticForm.zero_form(QQ, 0)


def test_restrict_matches_the_evaluate_polar_loop():
    rng = seeded(67)
    for field in _split_fields() + (F2, F3):
        for dim in (2, 4):
            phi = random_nonsingular_form(field, dim, rng, size=3)
            for k in range(1, dim + 1):
                vecs = [tuple(field.random_element(rng, 3) for _ in range(dim)) for _ in range(k)]
                if rank(vecs, field, dim) == k:
                    assert phi.restrict(vecs) == _restrict_reference(phi, vecs)


@pytest.mark.parametrize(
    "ext",
    [etale_quadratic(QQ, (0, 2)), etale_quadratic(F2, (1, 1)), etale_quadratic(F3, (0, -1)), etale_quadratic(F2t, (1, F2t.gen()))],
    ids=["Qsqrt2", "F4", "F9", "F2t"],
)
def test_transfer_matches_the_lift_loop(ext):
    rng = seeded(71)
    for dim in (2, 4):
        phi = random_nonsingular_form(ext, dim, rng, size=2)
        assert transfer(ext, phi) == _transfer_reference(ext, phi)


def test_albert_form_matches_the_nrd_polarisation():
    cases = [generate_instance(family, seed).build() for family in FAMILIES for seed in (0, 3, 8, 13)]
    assert {F.char == 2 for F, _, _ in cases} == {False, True}
    for _, ext, Q in cases:
        assert albert_form(ext, Q).form == _albert_reference(ext, Q)
