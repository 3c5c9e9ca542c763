"""Acceptance suite: one test per criterion, one pass/fail line each.

All arithmetic is exact, so every tolerance is equality.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import copy
import hashlib
import itertools
import time

import pytest
from conftest import random_nonsingular_form, seeded
from reference import det, enumeration_isotropy, split_projection_iso, squarefree_part, structured_finite_isotropy
from fractions import Fraction

from albertkit import (
    QQ,
    FiniteField,
    Instance,
    QuadraticForm,
    QuaternionAlgebra,
    albert_form,
    arf_trivial,
    build_corestriction,
    check_equivalence,
    clifford_iso_check,
    descend,
    etale_quadratic,
    f_map_check,
    generate_instance,
    hilbert_symbol,
    isotropic_spanning_set,
    verify_certificate,
    witt_decompose,
)
from albertkit.places import _factor_int
from albertkit.harness import report_json_bytes
from albertkit.jsonio import parse_element
from albertkit.linalg import rank, solve
from albertkit.transfer import transfer

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
EXT_Q2 = etale_quadratic(QQ, (0, 2))
EXT_Q3 = etale_quadratic(QQ, (0, 3))
EXT_F9 = etale_quadratic(F3, (0, -1))
EXT_F4 = etale_quadratic(F2, (1, 1))

K2 = EXT_Q2


def _line(num, name, detail=""):
    print("ACCEPTANCE %d (%s): PASS %s" % (num, name, detail))


# -- 1. algebraic identity suite ---------------------------------------------


def test_criterion_1_algebraic_identities():
    start = time.time()
    algebras = [
        QuaternionAlgebra(F5, 0, 2, 3),
        QuaternionAlgebra(F4, F4.one(), F4.gen(), F4.gen()),
        QuaternionAlgebra(QQ, 0, -1, -1),
        QuaternionAlgebra(K2, K2.zero(), K2.from_int(-1), K2.from_int(-1)),
    ]
    rng = seeded(101)
    failures = 0
    for Q in algebras:
        d = Q.ring
        for _ in range(500):
            x = Q.random_element(rng, 3)
            y = Q.random_element(rng, 3)
            ch = x * x - x.scale(x.trd()) + Q.one().scale(x.nrd())
            if not ch.is_zero():
                failures += 1
            if x.nrd() * y.nrd() != (x * y).nrd():
                failures += 1
            if x.conjugate().conjugate() != x:
                failures += 1
    elapsed = time.time() - start
    assert failures == 0
    assert elapsed < 10.0
    _line(1, "algebraic identities", "4 algebras x 500 elements in %.2fs" % elapsed)


# -- 2. transfer suite ---------------------------------------------------------


def test_criterion_2_transfer():
    rng = seeded(102)
    for ext in (EXT_Q2, EXT_Q3, EXT_F9, EXT_F4):
        K = ext
        for _ in range(100):
            for dim in (2, 4):
                phi = random_nonsingular_form(K, dim, rng, size=2)
                assert transfer(ext, phi).classify().nonsingular
    T = transfer(EXT_Q2, QuadraticForm.diagonal(K2, [K2.one()]))
    assert T.upper == ((QQ.zero(), QQ.from_int(2)), (QQ.zero(), QQ.zero()))
    wd = witt_decompose(T)
    assert wd.hyperbolic_count == 1 and wd.kernel.n == 0
    _line(2, "transfer", "4 extensions x 200 nonsingular forms; <1> transfers to 2xy")


# -- 3. descent suite ----------------------------------------------------------


def _descent_instance(ext, rng):
    K = ext
    if ext.base.char == 2 or ext.base.order is not None:
        return random_nonsingular_form(K, rng.choice([2, 4]), rng, size=2)
    # real quadratic extension: totally positive diagonal, plus optional
    # hyperbolic planes so the Witt machinery over K stays certified
    d = ext.beta
    entries = []
    for _ in range(rng.choice([1, 2])):
        while True:
            u = rng.randint(1, 4)
            v = rng.randint(-1, 1)
            if QQ.coerce(u * u) > d * v * v:
                break
        entries.append(K.from_pair(u, v))
    phi = QuadraticForm.diagonal(K, entries)
    for _ in range(rng.choice([0, 1])):
        phi = phi.orthogonal_sum(QuadraticForm.hyperbolic_plane(K))
    return phi


def test_criterion_3_descent():
    rng = seeded(103)
    odd_char2 = 0
    total = 0
    for ext in (EXT_Q2, EXT_Q3, EXT_F9, EXT_F4):
        K = ext
        for _ in range(25):
            phi = _descent_instance(ext, rng)
            res = descend(ext, phi)
            total += 1
            i0 = witt_decompose(transfer(ext, phi)).witt_index
            assert res.psi.n == i0
            cls = res.psi.classify()
            assert cls.nondegenerate
            for i in range(res.psi.n):
                assert phi.evaluate(res.embedding[i]) == K.from_base(res.psi.upper[i][i])
                for j in range(i + 1, res.psi.n):
                    assert phi.polar(res.embedding[i], res.embedding[j]) == K.from_base(
                        res.psi.polar_matrix()[i][j]
                    )
            if ext.base.char == 2 and i0 % 2 == 1:
                odd_char2 += 1
                assert not cls.nonsingular
    assert total == 100 and odd_char2 > 0
    _line(3, "descent", "100 instances, %d odd char-2 Witt indices" % odd_char2)


# -- 4. spanning lemma suite ---------------------------------------------------


def _form_shapes(field):
    elems = list(field.elements())
    nonzero = elems
    for dim in (1, 2, 3, 4):
        for diag in itertools.product(nonzero, repeat=dim):
            yield QuadraticForm.diagonal(field, diag)
    for a, b in itertools.product(elems, repeat=2):
        yield QuadraticForm.binary(field, a, b)
        for c in elems:
            if not field.is_zero(c):
                yield QuadraticForm.binary(field, a, b).orthogonal_sum(
                    QuadraticForm.diagonal(field, [c])
                )
    for a, b, c, d in itertools.product(elems, repeat=4):
        yield QuadraticForm.binary(field, a, b).orthogonal_sum(QuadraticForm.binary(field, c, d))


def test_criterion_4_spanning_lemma():
    checked = 0
    for field in (F3, F5):
        for form in _form_shapes(field):
            cls = form.classify()
            if not cls.regular:
                continue
            verdict = enumeration_isotropy(form)
            if not verdict.is_isotropic:
                continue
            basis = isotropic_spanning_set(form, verdict.witness)
            assert len(basis) == form.n
            for v in basis:
                assert field.is_zero(form.evaluate(v))
            assert not field.is_zero(det([list(v) for v in basis], field))
            checked += 1
    assert checked > 500
    _line(4, "spanning lemma", "%d regular isotropic forms over F3/F5" % checked)


# -- 5 and 6. corestriction and Albert-form suites ------------------------------


def _criterion5_instances():
    field_kind = []
    split_kind = []
    for seed in range(14):
        field_kind.append(generate_instance("quad-K-over-Q", seed))
    for seed in range(10):
        field_kind.append(generate_instance("char2-finite", seed))
    seed = 0
    while sum(1 for i in field_kind if i.family == "char2-function-field") < 6:
        inst = generate_instance("char2-function-field", seed)
        if inst.k_spec != "split":
            field_kind.append(inst)
        seed += 1
    for seed in range(12):
        split_kind.append(generate_instance("split-K-over-Q", seed))
    for seed in range(4):
        split_kind.append(generate_instance("split-K-over-Qt", seed))
    seed = 0
    while sum(1 for i in split_kind if i.family == "char2-function-field") < 4:
        inst = generate_instance("char2-function-field", seed)
        if inst.k_spec == "split":
            split_kind.append(inst)
        seed += 1
    return field_kind, split_kind


@pytest.fixture(scope="module")
def corestriction_instances():
    field_kind, split_kind = _criterion5_instances()
    built = []
    for inst in field_kind + split_kind:
        F, ext, Q = inst.build()
        cor = build_corestriction(ext, Q)
        built.append((inst, F, ext, Q, cor))
    return built


def test_criterion_5_corestriction(corestriction_instances):
    built = corestriction_instances
    assert len(built) == 50
    splits = 0
    for inst, F, ext, Q, cor in built:
        assert cor.dim == 16 and len(cor.basis) == 16
        # natural-map bijectivity was verified during construction; recheck
        from albertkit.corestriction import natural_map_bijective

        assert natural_map_bijective(cor)
        if ext.kind == "split":
            splits += 1
            comp = _component_algebras(ext, Q)
            direct, images = split_projection_iso(ext, cor, *comp)
            assert rank(list(images), F, 16) == 16
    assert splits == 20
    _line(5, "corestriction", "50 instances; 20 split-path isomorphisms found")


def test_criterion_5_cor_is_closed_under_products(corestriction_instances):
    # build_corestriction reads the coordinates of the 256 basis products
    # with no switch test: each product is switch-fixed, and fixed_coords
    # reads each basis element as its unit vector, so by F-linearity the
    # coordinates it reads off a product are the product's, as in the table
    for inst, F, ext, Q, cor in corestriction_instances:
        A = cor.tensor
        for m, b in enumerate(cor.basis):
            assert cor.fixed_coords(b) == tuple(F.one() if i == m else F.zero() for i in range(16))
        for r, x in enumerate(cor.basis):
            for s, y in enumerate(cor.basis):
                prod = x * y
                assert A.switch(prod) == prod, (inst.family, inst.seed, r, s)


def test_criterion_5_clifford_rank_is_certified_at_a_point(corestriction_instances, monkeypatch):
    # the rank-64 check runs in Cor reduced at a point: no 64-row elimination
    # over Q, Q(t) or F_2(t), no images built over F for the fallback, and
    # the same report as the exact check
    import albertkit.clifford as clifford_module
    import albertkit.linalg as linalg_module

    exact = linalg_module.rank
    fields = []

    def counting_rank(rows, field, ncols=None):
        if len(rows) == 64:
            fields.append(field)
        return exact(rows, field, ncols)

    monomial_rows = clifford_module._monomial_rows

    def reduced_only(alg, fs):
        if alg.ring.order is None:
            raise AssertionError("the exact fallback built the images over F")
        return monomial_rows(alg, fs)

    monkeypatch.setattr(linalg_module, "rank", counting_rank)
    monkeypatch.setattr(clifford_module, "_monomial_rows", reduced_only)
    for inst, F, ext, Q, cor in corestriction_instances:
        del fields[:]
        assert clifford_iso_check(albert_form(ext, Q), cor) == {"rank": 64, "monomials": 64}
        assert fields and all(field.order is not None for field in fields), (inst.family, inst.seed)


def _component_algebras(ext, Q):
    F = ext.base
    a1 = Q.alpha.a, Q.beta.a, Q.a.a
    a2 = Q.alpha.b, Q.beta.b, Q.a.b
    return QuaternionAlgebra(F, *a1), QuaternionAlgebra(F, *a2)


def test_criterion_6_albert_suite(corestriction_instances):
    rng = seeded(106)
    for inst, F, ext, Q, cor in corestriction_instances:
        ad = albert_form(ext, Q)
        assert ad.form.classify().nonsingular
        trivial, cert = arf_trivial(ad.form)
        assert trivial and cert["center_split"]
        rep = f_map_check(ad, cor, n_random=100, seed=rng.randint(0, 10**6))
        assert rep["basis_checked"] == 6 and rep["random_checked"] == 100
        iso = clifford_iso_check(ad, cor)
        assert iso["rank"] == 64
    # the worked values on the Hamilton / Q(sqrt2) instance
    Q = QuaternionAlgebra(K2, K2.zero(), K2.from_int(-1), K2.from_int(-1))
    ad = albert_form(EXT_Q2, Q)
    cols = [EXT_Q2.realify_vec(y.coords) for y in ad.y_basis]
    rows = [tuple(cols[c][r] for c in range(6)) for r in range(8)]
    i_elem = Q.elem((K2.zero(), K2.one(), K2.zero(), K2.zero()))
    ci = solve(rows, EXT_Q2.realify_vec(i_elem.coords), QQ)
    assert ad.form.evaluate(ci) == 0
    y2 = Q.elem((K2.zero(), K2.from_pair(1, 1), K2.zero(), K2.zero()))
    c2 = solve(rows, EXT_Q2.realify_vec(y2.coords), QQ)
    assert ad.form.evaluate(c2) == QQ.from_int(-8)
    _line(6, "Albert forms", "50 instances: Arf trivial, f^2 = phi, Clifford rank 64")


# -- 7. main-theorem harness ----------------------------------------------------


BATCH = (
    [("split-K-over-Q", s) for s in range(50)]
    + [("quad-K-over-Q", s) for s in range(50)]
    + [("split-K-over-Qt", s) for s in range(40)]
    + [("char2-finite", s) for s in range(40)]
    + [("char2-function-field", s) for s in range(20)]
)


@pytest.fixture(scope="module")
def harness_reports():
    start = time.time()
    reports = []
    for family, seed in BATCH:
        inst = generate_instance(family, seed)
        reports.append(check_equivalence(inst))
    return reports, time.time() - start


def test_criterion_7_main_theorem(harness_reports):
    reports, elapsed = harness_reports
    assert len(reports) == 200
    for rep in reports:
        statuses = {
            rep.cond_i.status,
            rep.cond_ii.status,
            rep.cond_iii_not_division.status,
        }
        assert "unknown" not in statuses, rep.instance.to_json()
        assert len(statuses) == 1, rep.instance.to_json()
        assert rep.consistent
    # named instance 1: Hamilton over Q(sqrt2)
    rep = check_equivalence(Instance("quad-K-over-Q", 0, "Q", "x^2-2", "0", "-1", "-1"))
    assert rep.cond_iii_not_division.status == "yes"
    assert list(rep.cond_iii_not_division.witness) == [QQ.one()] + [QQ.zero()] * 5
    assert rep.to_json()["cond_ii"]["witness"] == ["2", "w", "0", "0"]
    # named instance 2: (Hamilton, Hamilton) over Q x Q
    rep = check_equivalence(Instance("split-K-over-Q", 0, "Q", "split", [0, 0], ["-1", "-1"], ["-1", "-1"]))
    assert rep.cond_i.status == rep.cond_ii.status == rep.cond_iii_not_division.status == "yes"
    # named instance 3: ((-1,-1), (t,2)) over Q(t) x Q(t)
    rep = check_equivalence(Instance("split-K-over-Qt", 0, "Q(t)", "split", [0, 0], ["-1", "t"], ["-1", "2"]))
    assert rep.cond_i.status == rep.cond_ii.status == rep.cond_iii_not_division.status == "no"
    assert rep.cond_iii_not_division.method == "springer"
    assert elapsed < 300.0
    _line(7, "main theorem", "200 instances, exit code 0, %.1fs" % elapsed)


# sha256 over the report_json_bytes of the BATCH reports, in BATCH order
BATCH_REPORT_DIGEST = "2bce5d9f2e612f13bfd3bfe711ae8ccd791c0a8208235c0e9fb107d716240fdf"


def test_criterion_7_report_bytes_unchanged(harness_reports):
    reports, _ = harness_reports
    digest = hashlib.sha256(b"".join(report_json_bytes(rep) for rep in reports)).hexdigest()
    assert digest == BATCH_REPORT_DIGEST


# -- 8. oracle cross-validation --------------------------------------------------


def test_criterion_8_oracle_cross_validation():
    agree = 0
    for field in (F3, F4, F5):
        for form in _form_shapes(field):
            if form.n > 4:
                continue
            enum = enumeration_isotropy(form).status
            structured = structured_finite_isotropy(form)
            assert enum == structured, form
            agree += 1
    rng = seeded(108)
    for _ in range(200):
        a = Fraction(rng.randint(1, 50) * rng.choice([1, -1]), rng.randint(1, 50))
        b = Fraction(rng.randint(1, 50) * rng.choice([1, -1]), rng.randint(1, 50))
        places = {"inf", 2}
        for val in (a, b):
            for p in _factor_int(squarefree_part(val)):
                places.add(p)
        prod = 1
        for place in places:
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1
    _line(8, "oracle cross-validation", "%d finite forms + 200 Hilbert symbols" % agree)


# -- 9. certificate integrity ----------------------------------------------------


def test_criterion_9_certificates(harness_reports):
    reports, _ = harness_reports
    docs = [rep.to_json() for rep in reports]
    for doc in docs:
        assert verify_certificate(doc)
    # 100 single-coordinate tamperings that invalidate a witness are rejected;
    # each writes the first of "1", "-2", "0" that differs from the entry it
    # overwrites as an element, so every counted attempt changes the witness
    rejected = 0
    attempts = 0
    cheap = [d for d in docs if d["instance"]["family"] in ("split-K-over-Q", "char2-finite")]
    for doc in cheap:
        if rejected >= 100:
            break
        F, ext, _ = Instance.from_json(doc["instance"]).build()
        for key, ring in (("cond_iii_not_division", F), ("cond_ii", ext)):
            wit = doc[key].get("witness") or ()
            for pos in range(len(wit)):
                if rejected >= 100:
                    break
                old = parse_element(ring, wit[pos])
                bad = copy.deepcopy(doc)
                bad[key]["witness"][pos] = next(
                    v for v in ("1", "-2", "0") if not ring.is_zero(parse_element(ring, v) - old)
                )
                attempts += 1
                if not verify_certificate(bad):
                    rejected += 1
    assert rejected >= 100
    _line(9, "certificates", "all 200 accepted; %d/%d tamperings rejected" % (rejected, attempts))
