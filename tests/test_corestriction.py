"""Corestriction, V^s, Albert form and the witness-converting maps."""

import dataclasses
import importlib
import itertools
import math

import pytest
from conftest import seeded
from reference import isometric_embedding, split_projection_iso, tensor_product_algebra

from albertkit import (
    QQ,
    FiniteField,
    Instance,
    QuaternionAlgebra,
    RationalFunctionField,
    TensorSquareAlgebra,
    albert_form,
    build_corestriction,
    check_equivalence,
    cor_is_division,
    etale_quadratic,
    f_map_check,
    generate_instance,
    generator_to_isotropic,
    isotropic_to_generator,
    validate_disjoint_witness,
    verify_certificate,
)
from albertkit import corestriction
from albertkit.clifford import clifford_iso_check
from albertkit.corestriction import f_pair, f_product, natural_map_bijective
from albertkit.errors import AlgebraError, IdentityFails, InternalContradiction, InvalidWitness, RelationViolation
from albertkit.forms import QuadraticForm, hyperbolic_partner, line_point
from albertkit.harness import FAMILIES
from albertkit.isotropy import _clear_denominators, isotropy
from albertkit.linalg import combine, independent_subset, kernel_basis, rank, solve, units
from albertkit.transfer import transfer

EXT_Q2 = etale_quadratic(QQ, (0, 2))
K2 = EXT_Q2
HAMILTON_K = QuaternionAlgebra(K2, K2.zero(), K2.from_int(-1), K2.from_int(-1))


@pytest.fixture(scope="module")
def hamilton_albert():
    return albert_form(EXT_Q2, HAMILTON_K)


@pytest.fixture(scope="module")
def hamilton_cor():
    return build_corestriction(EXT_Q2, HAMILTON_K)


def test_switch_properties():
    A = TensorSquareAlgebra(HAMILTON_K)
    rng = seeded(53)
    one = A.one()
    assert (A.switch(one) - one).is_zero()
    for _ in range(60):
        e = A.elem([K2.random_element(rng, 3) for _ in range(16)])
        f = A.elem([K2.random_element(rng, 3) for _ in range(16)])
        assert (A.switch(A.switch(e)) - e).is_zero()
        lam = K2.random_element(rng, 3)
        assert (A.switch(e.scale(lam)) - A.switch(e).scale(EXT_Q2.conj(lam))).is_zero()
        assert (A.switch(e * f) - A.switch(e) * A.switch(f)).is_zero()


def _tensor_case(name):
    """(ext, Q, Q2): K and two quaternion algebras over it whose constants
    gamma moves, so a missing or misplaced twist shows."""
    F2t = RationalFunctionField(FiniteField(2), "t")
    base, presentation, c, d = {
        "Q(sqrt2)": (QQ, (0, 2), 1, -3),
        "QxQ": (QQ, "split", 1, -3),
        "F4/F2": (FiniteField(2), (1, 1), 1, 0),
        "F2(t)xF2(t)": (F2t, "split", F2t.gen(), F2t.gen()),
        "F2(t)[w]": (F2t, (1, F2t.gen()), F2t.gen(), F2t.gen()),
    }[name]
    ext = etale_quadratic(base, presentation)
    K = ext
    alpha = K.one() if base.char == 2 else K.zero()
    beta, a = ext.gen() + ext.from_base(c), ext.gen() + ext.from_base(d)
    return ext, QuaternionAlgebra(K, alpha, beta, a), QuaternionAlgebra(K, alpha, a, beta * a)


@pytest.mark.parametrize("name", ["Q(sqrt2)", "QxQ", "F4/F2", "F2(t)xF2(t)", "F2(t)[w]"])
def test_tensor_products_multiply_factorwise(name):
    # (gamma(x1) (x) y1)(gamma(x2) (x) y2) = gamma(x1 x2) (x) y1 y2 in the
    # tensor square, and (x1 (x) y1)(x2 (x) y2) = x1 x2 (x) y1 y2 in Q (x) Q2
    ext, Q, Q2 = _tensor_case(name)
    square = TensorSquareAlgebra(Q)
    direct = tensor_product_algebra(Q, Q2)

    def pure(x, y):
        return direct.elem([a * b for a in x.coords for b in y.coords])

    for alg, tensor, P in ((square, square.gx_tensor, Q), (direct, pure, Q2)):
        basis, basis2 = Q.basis(), P.basis()
        for i, j, k, l in itertools.product(range(4), repeat=4):
            e_ij, e_kl = tensor(basis[i], basis2[j]), tensor(basis[k], basis2[l])
            assert e_ij * e_kl == tensor(basis[i] * basis[k], basis2[j] * basis2[l])
        rng = seeded(61)
        for _ in range(4):
            xs = [Q.random_element(rng, 3) for _ in range(4)]
            ys = [P.random_element(rng, 3) for _ in range(4)]
            pures = [tensor(x, y) for x, y in zip(xs, ys)]
            assert pures[0] * pures[1] == tensor(xs[0] * xs[1], ys[0] * ys[1])
            expected = alg.zero()
            for s, t in itertools.product((0, 1), (2, 3)):
                expected = expected + tensor(xs[s] * xs[t], ys[s] * ys[t])
            assert (pures[0] + pures[1]) * (pures[2] + pures[3]) == expected
            assert alg.one() * pures[0] == pures[0] * alg.one() == pures[0]


def test_fixed_points_dimension_and_rank(hamilton_cor):
    assert hamilton_cor.dim == 16
    assert len(hamilton_cor.basis) == 16
    assert natural_map_bijective(hamilton_cor)
    assert hamilton_cor.unit_coords is not None


@pytest.fixture(scope="module")
def express_cors(hamilton_cor):
    """(ext, cor) for Hamilton over Q(sqrt2), split K over Q and split K over F_2(t)."""
    out = [(EXT_Q2, hamilton_cor)]
    for family, seed in (("split-K-over-Q", 0), ("char2-function-field", 1)):
        inst = generate_instance(family, seed)
        assert inst.k_spec == "split"
        _, ext, Q = inst.build()
        out.append((ext, build_corestriction(ext, Q)))
    return out


def _from_fixed_coords(cor, coords):
    A = cor.tensor
    out = A.zero()
    for c, b in zip(coords, cor.basis):
        out = out + b.scale(A.from_base(c))
    return out


def _structure_coords(cor, r, s):
    """The coordinates of basis[r] * basis[s] held in Cor's structure constants."""
    dense = [cor.ring.zero()] * 16
    for m, c in cor.structure[r][s]:
        dense[m] = c
    return tuple(dense)


def test_express_reads_fixed_basis_coordinates(express_cors):
    for ext, cor in express_cors:
        A = cor.tensor
        F, K = ext.base, ext
        # g0 (x) e1 alone: its switch image is g1 (x) e0
        half = A.elem([K.one() if i == 1 else K.zero() for i in range(16)])
        assert cor.express(half) is None
        assert cor.express(half + A.one()) is None
        assert cor.express(A.zero()) == (F.zero(),) * 16
        for r, b in enumerate(cor.basis):
            assert cor.express(b) == tuple(F.one() if i == r else F.zero() for i in range(16))
        assert cor.unit_coords == cor.express(A.one())
        assert isinstance(cor.unit_coords, tuple)
        for r in range(16):
            for s in range(16):
                prod = cor.basis[r] * cor.basis[s]
                coords = cor.express(prod)
                assert (_from_fixed_coords(cor, coords) - prod).is_zero()
                assert _structure_coords(cor, r, s) == coords


def test_express_matches_an_independent_solve(hamilton_cor):
    cor = hamilton_cor
    A = cor.tensor
    F = cor.ring
    cols = [A.ring.realify_vec(b.coords) for b in cor.basis]
    rows = [tuple(cols[c][r] for c in range(16)) for r in range(32)]
    for r in range(16):
        for s in range(16):
            assert solve(rows, A.ring.realify_vec((cor.basis[r] * cor.basis[s]).coords), F) == _structure_coords(cor, r, s)
    # an element of another tensor square, even of the same algebra, is refused
    other = TensorSquareAlgebra(HAMILTON_K)
    for elem in (other.one(), other.elem([K2.one() if i == 1 else K2.zero() for i in range(16)])):
        with pytest.raises(AlgebraError, match="mixed tensor-algebra contexts"):
            cor.express(elem)


def _reference_fixed_basis(ext, A):
    """The echelon kernel of the realified (switch - id), and its free columns."""
    F = ext.base
    cols = []
    for vec in units(F, 32):
        elem = A.elem(ext.unrealify_vec(vec))
        cols.append(A.ring.realify_vec((A.switch(elem) - elem).coords))
    kernel = kernel_basis([tuple(col[r] for col in cols) for r in range(32)], F, 32)
    free = [max(i for i, c in enumerate(vec) if not F.is_zero(c)) for vec in kernel]
    return [A.elem(ext.unrealify_vec(vec)) for vec in kernel], free


def _reference_char2_ys(ext, Q):
    """The kernel of y -> T(Trd y) in F-coordinates, less the kappa line."""
    F, K = ext.base, Q.ring
    functional = [ext.trace_to_base(Q.elem(ext.unrealify_vec(vec)).trd()) for vec in units(F, 8)]
    Y = kernel_basis([tuple(functional)], F, 8)
    kappa_vec = ext.realify_vec(Q.elem((ext.kappa(), K.zero(), K.zero(), K.zero())).coords)
    chosen = independent_subset([kappa_vec] + Y, F, 8, target=7)
    assert len(Y) == 7 and chosen[0] == kappa_vec
    return [Q.elem(ext.unrealify_vec(_clear_denominators(F, v))) for v in chosen[1:]]


def _cor_audit_kinds():
    """One instance of each cor-audit kind: the five families, with
    char2-function-field once over split and once over field K."""
    out = [generate_instance(family, 0).build() for family in FAMILIES[:4]]
    for kind in ("split", "field"):
        built = (generate_instance("char2-function-field", seed).build() for seed in itertools.count())
        out.append(next(b for b in built if b[1].kind == kind))
    return out


def test_written_down_bases_match_the_eliminations():
    # Cor's fixed basis and the characteristic-2 y of V^s are written down;
    # the eliminations that used to build them are the reference
    cases = _cor_audit_kinds() + [generate_instance(f, seed).build() for f in FAMILIES for seed in (1, 7, 19)]
    assert sorted({(F.char == 2, ext.kind) for F, ext, _ in cases}) == [
        (False, "field"), (False, "split"), (True, "field"), (True, "split")
    ]
    for _, ext, Q in cases:
        cor = build_corestriction(ext, Q)
        A = cor.tensor
        basis, free = _reference_fixed_basis(ext, A)
        assert basis == cor.basis
        for elem in [A.one()] + [cor.basis[r] * cor.basis[(5 * r + 3) % 16] for r in range(16)]:
            vec = A.ring.realify_vec(elem.coords)
            assert cor.express(elem) == tuple(vec[c] for c in free)
    for F, ext, Q in cases + _char2_pool():
        if F.char == 2:
            ys = corestriction.vs_space(Q)
            assert [y.coords for y in ys] == [y.coords for y in _reference_char2_ys(ext, Q)]


def _char2_pool():
    return [generate_instance(f, seed).build() for f in ("char2-finite", "char2-function-field") for seed in range(0, 60, 3)]


# the 200-instance acceptance batch
BATCH_SIZES = {"split-K-over-Q": 50, "quad-K-over-Q": 50, "split-K-over-Qt": 40, "char2-finite": 40, "char2-function-field": 20}


@pytest.fixture(scope="module")
def batch_builds():
    return [generate_instance(f, seed).build() for f, n in BATCH_SIZES.items() for seed in range(n)]


def test_vs_space_dimension(batch_builds):
    # the guards that vs_space held at run time: T(Trd y) = 0, and the xi
    # are switch-invariant and F-independent, so they span the 6-dimensional V^s
    cases = [(QQ, EXT_Q2, HAMILTON_K)] + batch_builds + _char2_pool()
    assert len(cases) == 1 + 200 + 40
    for F, ext, Q in cases:
        ys = corestriction.vs_space(Q)
        assert len(ys) == 6
        assert all(F.is_zero(ext.trace_to_base(y.trd())) for y in ys)
        t = TensorSquareAlgebra(Q)
        xis = [t.xi_of(y) for y in ys]
        assert all(t.switch(xi) == xi for xi in xis)
        assert rank([t.ring.realify_vec(xi.coords) for xi in xis], F, 32) == 6


def _sigma_first_reference(t, elem):
    """(sigma (x) id)(elem) by the table of conjugated basis rows, as the
    tensor square computed it before f was defined on y."""
    K, gamma = t.ring, t.ring.conj
    rows = [q.conjugate().coords for q in t.Q.basis()]
    coords = [K.zero()] * 16
    for idx, c in enumerate(elem.coords):
        i, j = divmod(idx, 4)
        for m, s in enumerate(rows[i]):
            coords[4 * m + j] = coords[4 * m + j] + gamma(s) * c
    return t.elem(coords)


def test_f_matrix_from_y_matches_the_sigma_rows(batch_builds):
    # f from y: xi = gamma(y) (x) 1 + 1 (x) y and eta = kappa (gamma(conj y) (x) 1 + 1 (x) y)
    # equal xi_of(y) and kappa times the sigma-row image of xi, on the six y_i
    # and their sum for every batch instance
    checked = 0
    for _, ext, Q in batch_builds:
        t = TensorSquareAlgebra(Q)
        kappa = ext.kappa()
        ys = corestriction.vs_space(Q)
        for y in ys + (sum(ys[1:], ys[0]),):
            eta, xi = f_pair(t, y)
            assert xi == t.xi_of(y)
            assert eta == _sigma_first_reference(t, xi).scale(kappa)
            checked += 1
    assert checked == 1400


def test_albert_worked_values(hamilton_albert):
    ad = hamilton_albert
    # phi(xi_{y=i}) = 0 and phi(xi_{y=(1+sqrt2) i}) = -8
    cols = [EXT_Q2.realify_vec(y.coords) for y in ad.y_basis]
    rows = [tuple(cols[c][r] for c in range(6)) for r in range(8)]
    i_elem = HAMILTON_K.elem((K2.zero(), K2.one(), K2.zero(), K2.zero()))
    ci = solve(rows, EXT_Q2.realify_vec(i_elem.coords), QQ)
    assert ci is not None and ad.form.evaluate(ci) == 0
    y2 = HAMILTON_K.elem((K2.zero(), K2.from_pair(1, 1), K2.zero(), K2.zero()))
    c2 = solve(rows, EXT_Q2.realify_vec(y2.coords), QQ)
    assert c2 is not None and ad.form.evaluate(c2) == QQ.from_int(-8)
    assert ad.form.classify().nonsingular


def test_albert_form_is_the_scaled_transfer_of_the_norm_form():
    # the paper's route: on the field-K batch items with char F != 2 the
    # Albert form is c s_*<Nrd e0, Nrd z, Nrd e0z>, c = -(alpha^2 + 4 beta)/2,
    # in the basis e0, w e0, z, w z, e0z, w e0z
    for seed in range(BATCH_SIZES["quad-K-over-Q"]):
        F, ext, Q = generate_instance("quad-K-over-Q", seed).build()
        assert ext.kind == "field" and F.char != 2
        ad = albert_form(ext, Q)
        e0, z, e0z = ad.y_basis[::2]
        norm = QuadraticForm.diagonal(Q.ring, [e0.nrd(), z.nrd(), e0z.nrd()])
        c = -(ext.alpha * ext.alpha + 4 * ext.beta) / 2
        assert ad.form == transfer(ext, norm).scale(c)


def _s_nrd(ad):
    """The form s(Nrd y) on the y basis, before the scaling by c."""
    Q = ad.Q
    K = Q.ring
    return QuadraticForm.from_map(K.base, lambda v: K.s(Q.elem(v).nrd()), [y.coords for y in ad.y_basis])


def test_albert_form_scale_per_kind(hamilton_albert):
    # c = kappa (gamma(w) - w): 1 for split K, alpha in characteristic 2, -(alpha^2 + 4 beta)/2 otherwise
    split = _albert_of("split-K-over-Q", 0)
    assert split.Q.ring.kind == "split" and split.form == _s_nrd(split)
    char2 = next(ad for ad in (_albert_of("char2-finite", seed) for seed in itertools.count()) if ad.Q.ring.kind == "field")
    assert char2.form == _s_nrd(char2).scale(char2.Q.ring.alpha)
    # Q(sqrt2): alpha = 0 and beta = 2
    assert hamilton_albert.form == _s_nrd(hamilton_albert).scale(QQ.from_int(-4))


def test_albert_form_rejects_a_quaternion_algebra_over_another_k():
    for ext in (etale_quadratic(QQ, (0, 3)), etale_quadratic(QQ, "split"), etale_quadratic(FiniteField(2), (1, 1))):
        with pytest.raises(AlgebraError, match="quaternion algebra is not defined over the extension"):
            albert_form(ext, HAMILTON_K)


def test_build_corestriction_rejects_a_quaternion_algebra_over_another_k():
    # the two entry points that take K beside Q check that they agree; every
    # other function reads K off Q
    for K in (etale_quadratic(QQ, (0, 3)), etale_quadratic(QQ, "split"), etale_quadratic(FiniteField(2), (1, 1))):
        with pytest.raises(AlgebraError, match="quaternion algebra is not defined over the extension"):
            build_corestriction(K, HAMILTON_K)


def test_albert_data_holds_q_alone(hamilton_albert):
    # K, F and kappa are read off Q, so AlbertData stores no copy of them
    assert [f.name for f in dataclasses.fields(corestriction.AlbertData)] == ["Q", "y_basis", "form"]
    ad = hamilton_albert
    assert ad.Q is HAMILTON_K and ad.form.field is HAMILTON_K.ring.base


@pytest.mark.parametrize("family", FAMILIES)
def test_albert_form_builds_no_tensor(family, monkeypatch):
    # the Albert layer is formula-only: no tensor square, no xi and no tensor
    # product; a cor-audit item builds one square, Cor's, for both audits
    counts = {"square": 0, "mul": 0, "xi_of": 0}
    square, mul, xi_of = TensorSquareAlgebra.__init__, corestriction.TensorElem.__mul__, TensorSquareAlgebra.xi_of

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(TensorSquareAlgebra, "__init__", counting("square", square))
    monkeypatch.setattr(corestriction.TensorElem, "__mul__", counting("mul", mul))
    monkeypatch.setattr(TensorSquareAlgebra, "xi_of", counting("xi_of", xi_of))
    _, ext, Q = generate_instance(family, 0).build()
    ad = albert_form(ext, Q)
    assert counts == {"square": 0, "mul": 0, "xi_of": 0}
    t = TensorSquareAlgebra(Q)
    t.xi_of(ad.y_basis[0]) * t.one()
    assert counts == {"square": 1, "mul": 1, "xi_of": 1}
    counts["square"] = 0
    cor = build_corestriction(ext, Q)
    f_map_check(ad, cor, n_random=5)
    clifford_iso_check(ad, cor)
    assert counts["square"] == 1


def test_f_map_identity(hamilton_albert, hamilton_cor):
    report = f_map_check(hamilton_albert, hamilton_cor, n_random=100)
    assert report["basis_checked"] == 6 and report["random_checked"] == 100


def test_f_nilpotent_certificate(hamilton_albert):
    ad = hamilton_albert
    div = cor_is_division(ad)
    assert div.not_division is True
    f = div.nilpotent
    assert not (f[0].is_zero() and f[1].is_zero())
    t = TensorSquareAlgebra(HAMILTON_K)
    again = f_pair(t, ad.y_from_coords(div.witness_coords))
    assert [e.coords for e in again] == [e.coords for e in f]
    sq = f_product(again, again)
    assert all(e.is_zero() for e in sq)


def test_named_witness_conversion(hamilton_albert):
    ad = hamilton_albert
    div = cor_is_division(ad)
    gen = isotropic_to_generator(ad, div.witness_coords)
    # kappa*y = 2 + sqrt(2) i with minimal polynomial x^2 - 4x + 6
    assert gen.trd == 4 and gen.nrd == 6
    coords = gen.kappa_y.coords
    assert coords[0] == K2.from_int(2) and coords[1] == K2.gen()


def test_generator_to_isotropic_roundtrip(hamilton_albert):
    ad = hamilton_albert
    i_elem = HAMILTON_K.elem((K2.zero(), K2.one(), K2.zero(), K2.zero()))
    coords = generator_to_isotropic(ad, i_elem)
    assert QQ.is_zero(ad.form.evaluate(coords))
    gen = isotropic_to_generator(ad, coords)
    validate_disjoint_witness(HAMILTON_K, gen.kappa_y, etale_required=True)
    with pytest.raises(InvalidWitness):
        generator_to_isotropic(ad, HAMILTON_K.one())


def _albert_of(family, seed):
    _, ext, Q = generate_instance(family, seed).build()
    return albert_form(ext, Q)


def _reference_xi_coords(ad, x):
    """kappa*x's tensor image solved for in the realified xi basis (32 x 6)."""
    t = TensorSquareAlgebra(ad.Q)
    xi = t.xi_of(x.scale(ad.Q.ring.kappa()))
    cols = [t.ring.realify_vec(t.xi_of(y).coords) for y in ad.y_basis]
    return solve([tuple(col[r] for col in cols) for r in range(32)], t.ring.realify_vec(xi.coords), ad.Q.ring.base)


def test_generator_to_isotropic_matches_the_realified_xi_solve(hamilton_albert):
    # the coordinates come from an 8 x 7 solve over y_basis and the kappa
    # line; the 32 x 6 solve in the xi basis is the reference
    i_elem = HAMILTON_K.elem((K2.zero(), K2.one(), K2.zero(), K2.zero()))
    assert generator_to_isotropic(hamilton_albert, i_elem) == _reference_xi_coords(hamilton_albert, i_elem)
    families = set()
    for family in FAMILIES:
        for seed in range(0, 20, 4):
            ad = _albert_of(family, seed)
            div = cor_is_division(ad)
            if div.not_division is True:
                x = isotropic_to_generator(ad, div.witness_coords).kappa_y
                assert generator_to_isotropic(ad, x) == _reference_xi_coords(ad, x)
                families.add(family)
    assert families == set(FAMILIES)


def test_y_basis_is_trace_zero_outside_char2(hamilton_albert):
    # why isotropic_to_generator needs only the +kappa shift: unshifted,
    # kappa*y has trace 0, and c*kappa for c != 0 changes neither the
    # discriminant nor K-independence
    for ad in (hamilton_albert, _albert_of("split-K-over-Q", 26), _albert_of("split-K-over-Qt", 3)):
        K = ad.Q.ring
        assert all(K.is_zero(y.trd()) for y in ad.y_basis)


@pytest.mark.parametrize("family, seed", [("char2-function-field", 6), ("char2-function-field", 7), ("char2-finite", 0)])
def test_char2_generator_is_built_not_searched(family, seed, monkeypatch):
    # the witness itself has trace 0, so the generator must come from its
    # hyperbolic pair, and no scan may run to find it
    ad = _albert_of(family, seed)
    K = ad.Q.ring
    div = cor_is_division(ad)
    assert div.not_division is True
    assert K.is_zero(ad.y_from_coords(div.witness_coords).trd())

    def scan(*args, **kwargs):
        raise AssertionError("a candidate scan ran on the generator path")

    for module in map(importlib.import_module, ("albertkit.search", "albertkit.isotropy", "albertkit.corestriction")):
        for name in ("zeros", "char2_isotropic_stream"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, scan)
    gen = isotropic_to_generator(ad, div.witness_coords)
    validate_disjoint_witness(ad.Q, gen.kappa_y, etale_required=True)
    assert not K.is_zero(gen.kappa_y.trd())


def _refuse_first(monkeypatch, n):
    """Make the generator path's validation refuse its first n candidates; returns the calls."""
    calls = []
    validate = corestriction.validate_disjoint_witness

    def refuse(*args, **kwargs):
        calls.append(args[1])
        if len(calls) <= n:
            raise InvalidWitness("refused")
        return validate(*args, **kwargs)

    monkeypatch.setattr(corestriction, "validate_disjoint_witness", refuse)
    return calls


def test_used_up_candidate_list(monkeypatch):
    # the stream provably holds a generator in every characteristic, so
    # using it up is a bug, not an unknown
    _refuse_first(monkeypatch, float("inf"))
    for family in ("split-K-over-Q", "char2-finite"):
        ad = _albert_of(family, 0)
        with pytest.raises(InternalContradiction):
            isotropic_to_generator(ad, cor_is_division(ad).witness_coords)


@pytest.mark.parametrize("family", ["split-K-over-Q", "quad-K-over-Q"])
def test_generator_found_past_the_first_twelve_candidates(family, monkeypatch):
    # u, zeta and the ten unit and pairwise-sum images are refused; the rest
    # of the grid still holds a generator
    calls = _refuse_first(monkeypatch, 12)
    report = check_equivalence(generate_instance(family, 0))
    assert len(calls) > 13
    assert report.cond_ii.status == "yes" and report.cond_ii.method == "albert-isotropic-to-generator"
    assert report.consistent
    assert verify_certificate(report.to_json())


@pytest.mark.parametrize(
    "family, seed", [("split-K-over-Q", 0), ("split-K-over-Q", 5), ("quad-K-over-Q", 0), ("split-K-over-Qt", 0)]
)
def test_failure_polynomial_has_degree_at_most_four(family, seed):
    # P(s*x) = Nrd(y(s x + u - q(s x) zeta)) has degree <= 4 in s, so its
    # fifth difference over s = 0..5 vanishes
    ad = _albert_of(family, seed)
    F, K = ad.Q.ring.base, ad.Q.ring
    u = cor_is_division(ad).witness_coords
    zeta = hyperbolic_partner(ad.form, u)
    comp = ad.form.orthogonal_complement([u, zeta])
    rng = seeded(131)
    for _ in range(3):
        x = combine([F.from_int(rng.randint(-3, 3)) for _ in comp], comp, F, 6)
        values = []
        for s in range(6):
            point = line_point(ad.form, zeta, tuple(F.from_int(s) * a + b for a, b in zip(x, u)))
            values.append(ad.y_from_coords(point).nrd())
        diff = sum((K.from_int((-1) ** k * math.comb(5, k)) * v for k, v in enumerate(values)), K.zero())
        assert K.is_zero(diff)
        assert not all(K.is_zero(v) for v in values[1:])


def test_grid_of_f3_gives_way_to_the_zeros(monkeypatch):
    # F_3 has three values, so its grid of 3^4 points is not provably
    # complete; with u, zeta and the 80 nonzero grid points refused, a zero
    # of the form from the finite-field tail is the generator
    _, ext, Q = Instance("custom", 0, "F(3)", "x^2+1", "0", "1+w", "w").build()
    ad = albert_form(ext, Q)
    witness = cor_is_division(ad).witness_coords
    calls = _refuse_first(monkeypatch, 2 + 80)
    gen = isotropic_to_generator(ad, witness)
    assert len(calls) > 82
    assert ext.base.is_zero(ad.form.evaluate(gen.coords))
    validate_disjoint_witness(Q, gen.kappa_y, etale_required=True)


def test_split_corestriction_is_tensor_product():
    ext = etale_quadratic(QQ, "split")
    D = ext
    Q = QuaternionAlgebra(D, D.zero(), D.from_int(-1), D.from_int(-1))
    cor = build_corestriction(ext, Q)
    Q1 = QuaternionAlgebra(QQ, 0, -1, -1)
    direct, images = split_projection_iso(ext, cor, Q1, Q1)
    assert direct.label == "tensor-product"
    # H (x) H is split: the Albert form is isotropic
    ad = albert_form(ext, Q)
    assert cor_is_division(ad).not_division is True


def test_split_albert_matches_classical():
    # Albert form of (Q1, Q2) over F x F vs the classical 6-dim form
    F5 = FiniteField(5)
    ext = etale_quadratic(F5, "split")
    D = ext
    rng = seeded(59)
    for _ in range(4):
        b1, a1, b2, a2 = (rng.choice([1, 2, 3, 4]) for _ in range(4))
        Q = QuaternionAlgebra(D, D.zero(), D.pair(b1, b2), D.pair(a1, a2))
        ad = albert_form(ext, Q)
        classical = QuadraticForm.diagonal(
            F5, [b1, a1, F5.from_int(-a1 * b1), -F5.from_int(b2), -F5.from_int(a2), F5.from_int(a2 * b2)]
        )
        emb = isometric_embedding(classical, ad.form)
        assert emb is not None
    # over Q the isotropy verdicts match the classical Albert form
    extq = etale_quadratic(QQ, "split")
    Dq = extq
    for (b1, a1, b2, a2) in ((-1, -1, -1, -1), (-1, -1, 2, 3), (2, 3, 5, 7)):
        Q = QuaternionAlgebra(Dq, Dq.zero(), Dq.pair(b1, b2), Dq.pair(a1, a2))
        ad = albert_form(extq, Q)
        classical = QuadraticForm.diagonal(QQ, [b1, a1, -a1 * b1, -b2, -a2, a2 * b2])
        assert isotropy(ad.form).status == isotropy(classical).status


def test_split_function_field_division_instance():
    Qt = RationalFunctionField(QQ, "t")
    t = Qt.gen()
    ext = etale_quadratic(Qt, "split")
    D = ext
    Q = QuaternionAlgebra(
        D, D.zero(), D.pair(Qt.from_int(-1), t), D.pair(Qt.from_int(-1), Qt.from_int(2))
    )
    ad = albert_form(ext, Q)
    diag = [ad.form.upper[i][i] for i in range(6)]
    assert [Qt.format_element(c) for c in diag] == ["-1", "-1", "-1", "-1*t", "-2", "2*t"]
    div = cor_is_division(ad, height=8)
    assert div.not_division is False and div.method == "springer"


def _corrupt_gram(ad, i, j):
    """The Albert data with the Gram entry (i, j) of its form increased by 1."""
    F = ad.form.field
    rows = [list(row) for row in ad.form.upper]
    rows[i][j] = rows[i][j] + F.one()
    return dataclasses.replace(ad, form=QuadraticForm(F, rows))


def test_f_map_check_rejects_a_corrupted_gram_entry(hamilton_albert, hamilton_cor):
    # a diagonal entry fails on a basis vector, an off-diagonal one on random vectors
    for i, j in ((0, 0), (2, 2), (0, 1), (3, 5)):
        with pytest.raises(IdentityFails):
            f_map_check(_corrupt_gram(hamilton_albert, i, j), hamilton_cor, n_random=20)


@pytest.mark.parametrize("family", ("hamilton",) + FAMILIES)
def test_relations_reject_every_corrupted_gram_entry(family, hamilton_albert, hamilton_cor):
    # with no random vector, the 21 relations see every entry of the Gram
    # matrix: a diagonal entry in a square, an off-diagonal one in an
    # anticommutation relation, in f_map_check and in clifford_iso_check
    if family == "hamilton":
        ad, cor = hamilton_albert, hamilton_cor
    else:
        _, ext, Q = generate_instance(family, 0).build()
        ad, cor = albert_form(ext, Q), build_corestriction(ext, Q)
    assert f_map_check(ad, cor, n_random=0) == {
        "basis_checked": 6, "relations_checked": 21, "random_checked": 0, "entries_in_cor": True}
    for i, j in itertools.combinations_with_replacement(range(6), 2):
        bad = _corrupt_gram(ad, i, j)
        with pytest.raises(IdentityFails, match="basis vector %d" % i if i == j else "i, j = %d, %d" % (i, j)):
            f_map_check(bad, cor, n_random=0)
        with pytest.raises(RelationViolation):
            clifford_iso_check(bad, cor)


def test_f_map_check_rejects_xi_outside_the_fixed_space(hamilton_albert, hamilton_cor):
    # a y with T(Trd y) != 0 keeps xi in Cor but puts kappa (sigma (x) id)(xi)
    # outside it: the membership check of cor_f_basis rejects it, before any relation
    ext = etale_quadratic(QQ, "split")
    D = ext
    Q = QuaternionAlgebra(D, D.zero(), D.from_int(-1), D.from_int(-1))
    for ad, cor in ((hamilton_albert, hamilton_cor), (albert_form(ext, Q), build_corestriction(ext, Q))):
        y = ad.y_basis[0] + ad.Q.one()
        assert not QQ.is_zero(ad.Q.ring.trace_to_base(y.trd()))
        bad = dataclasses.replace(ad, y_basis=(y,) + ad.y_basis[1:])
        eta, xi = f_pair(cor.tensor, y)
        assert cor.express(xi) is not None and cor.express(eta) is None
        assert corestriction.cor_f_basis(bad, cor) is None
        with pytest.raises(IdentityFails, match="fixed algebra"):
            f_map_check(bad, cor, n_random=0)
    # a trace-zero y whose value is not its Gram entry: phi(xi_{(1+sqrt2) i}) = -8, the entry is 0
    ad = hamilton_albert
    bad = dataclasses.replace(ad, y_basis=(ad.y_basis[0] + ad.y_basis[1],) + ad.y_basis[1:])
    with pytest.raises(IdentityFails, match="basis vector 0"):
        f_map_check(bad, hamilton_cor, n_random=0)


def test_arf_scaling_invariance_on_char2_albert():
    from albertkit import arf_trivial

    F2 = FiniteField(2)
    ext = etale_quadratic(F2, (1, 1))
    K4 = ext
    Q = QuaternionAlgebra(K4, K4.one(), K4.gen(), K4.one())
    ad = albert_form(ext, Q)
    base, _ = arf_trivial(ad.form)
    assert base
    for c in (F2.one(),):
        scaled, _ = arf_trivial(ad.form.scale(c))
        assert scaled == base
    F2t = RationalFunctionField(F2, "t")
    t = F2t.gen()
    ext2 = etale_quadratic(F2t, (F2t.one(), t))
    Kt = ext2
    Q2 = QuaternionAlgebra(Kt, Kt.one(), Kt.from_base(t), Kt.one())
    ad2 = albert_form(ext2, Q2)
    base2, _ = arf_trivial(ad2.form)
    assert base2
    scaled2, _ = arf_trivial(ad2.form.scale(t))
    assert scaled2 == base2


def test_split_qt_degeneration_verdicts_match_classical():
    Qt = RationalFunctionField(QQ, "t")
    t = Qt.gen()
    ext = etale_quadratic(Qt, "split")
    D = ext
    params = [
        ((Qt.from_int(-1), t), (Qt.from_int(-1), Qt.from_int(2))),
        ((Qt.from_int(2), t), (Qt.from_int(3), Qt.from_int(-1))),
    ]
    for (beta_pair, a_pair) in params:
        Q = QuaternionAlgebra(D, D.zero(), D.pair(*beta_pair), D.pair(*a_pair))
        ad = albert_form(ext, Q)
        b1, b2 = beta_pair
        a1, a2 = a_pair
        classical = QuadraticForm.diagonal(
            Qt, [b1, a1, -(a1 * b1), -b2, -a2, a2 * b2]
        )
        assert isotropy(ad.form, height=8).status == isotropy(classical, height=8).status


def test_char2_field_instance():
    F2 = FiniteField(2)
    ext = etale_quadratic(F2, (1, 1))
    K4 = ext
    Q = QuaternionAlgebra(K4, K4.one(), K4.gen(), K4.one())
    cor = build_corestriction(ext, Q)
    ad = albert_form(ext, Q)
    rep = f_map_check(ad, cor, n_random=40)
    assert rep["basis_checked"] == 6
    div = cor_is_division(ad)
    assert div.not_division is True  # finite fields admit no division quaternions
    gen = isotropic_to_generator(ad, div.witness_coords)
    validate_disjoint_witness(Q, gen.kappa_y, etale_required=True)
