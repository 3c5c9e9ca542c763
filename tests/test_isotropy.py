"""Isotropy oracles: Hilbert symbols, Hasse-Minkowski, Springer, Witt."""

import json
import time

import pytest
from conftest import random_nonsingular_form, seeded
from reference import leading_minor_definiteness, rationally_equivalent, squarefree_part
from fractions import Fraction

from albertkit import (
    QQ,
    FiniteField,
    QuadraticForm,
    QuadraticFieldExtension,
    RationalFunctionField,
    bounded_search,
    hasse_minkowski,
    hilbert_symbol,
    springer_reduce,
    witt_decompose,
    witt_index,
)
from albertkit.cli import main
from albertkit.errors import NotApplicable
from albertkit.isotropy import definiteness_certificate, isotropic_verdict, isotropy
from albertkit.places import TRIAL_DIVISION_BOUND, _factor_int
from albertkit.search import scalar_candidates

F3 = FiniteField(3)
F5 = FiniteField(5)
Qt = RationalFunctionField(QQ, "t")


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(1, Fraction(7, 3), 5) == 1
    assert hilbert_symbol(2, 3, 2) == -1  # x^2: 2x^2+3y^2=z^2 has no 2-adic point


def test_hilbert_reciprocity():
    rng = seeded(13)
    for _ in range(200):
        a = Fraction(rng.randint(1, 50) * rng.choice([1, -1]), rng.randint(1, 50))
        b = Fraction(rng.randint(1, 50) * rng.choice([1, -1]), rng.randint(1, 50))
        places = {"inf", 2}
        for val in (a, b):
            for p in _factor_int(squarefree_part(val)):
                places.add(p)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_hasse_minkowski_examples():
    assert isotropy(QuadraticForm.diagonal(QQ, [1, 1, 1, 1])).is_anisotropic
    assert isotropy(QuadraticForm.diagonal(QQ, [1, -2])).is_anisotropic
    v = isotropy(QuadraticForm.diagonal(QQ, [1, 1, 1, 1, 1, -7]))
    assert v.is_isotropic and v.witness is not None
    assert isotropy(QuadraticForm.diagonal(QQ, [-1, -1, -1, -2, -5, -10])).is_anisotropic
    v = isotropy(QuadraticForm.diagonal(QQ, [1, -1]))
    assert v.is_isotropic and v.witness == (Fraction(1), Fraction(1))
    # local-condition dimensions
    assert isotropy(QuadraticForm.diagonal(QQ, [1, 1, -3])).is_anisotropic
    assert isotropy(QuadraticForm.diagonal(QQ, [1, 1, -2])).is_isotropic
    assert isotropy(QuadraticForm.diagonal(QQ, [1, 3, -2, -6])).is_anisotropic
    assert isotropy(QuadraticForm.diagonal(QQ, [1, 1, -2, -7])).is_isotropic


def test_rationally_equivalent_with_a_place_listed_for_one_form_only():
    # 5 (resp. 3) is a relevant place of <5,5> (resp. <3,3>) only; it reads 1 for <1,1>
    one_one = QuadraticForm.diagonal(QQ, [1, 1])
    assert rationally_equivalent(one_one, QuadraticForm.diagonal(QQ, [5, 5]))
    assert rationally_equivalent(QuadraticForm.diagonal(QQ, [5, 5]), one_one)
    assert not rationally_equivalent(one_one, QuadraticForm.diagonal(QQ, [3, 3]))
    assert not rationally_equivalent(QuadraticForm.diagonal(QQ, [3, 3]), one_one)


def test_bounded_search_examples():
    hyp = QuadraticForm.hyperbolic_plane(QQ)
    v = bounded_search(hyp, 1)
    assert v.is_isotropic and v.witness == (Fraction(1), Fraction(0))
    v = bounded_search(QuadraticForm.diagonal(QQ, [1, 1]), 10)
    assert v.status == "unknown" and v.height == 10
    v = bounded_search(QuadraticForm.diagonal(QQ, [1, 1, -3]), 2)
    assert v.status == "unknown"  # 3 is not a sum of two rational squares


def test_springer_examples():
    t = Qt.gen()
    v = springer_reduce(QuadraticForm.diagonal(Qt, [Qt.one(), -t]))
    assert v.is_anisotropic
    v = springer_reduce(QuadraticForm.diagonal(Qt, [Qt.one(), -Qt.one(), t]))
    assert v.is_isotropic
    v = springer_reduce(
        QuadraticForm.diagonal(Qt, [-Qt.one(), -Qt.one(), -Qt.one(), Qt.from_int(-2), -t, 2 * t])
    )
    assert v.is_anisotropic
    with pytest.raises(NotApplicable):
        springer_reduce(QuadraticForm.diagonal(Qt, [t + 1]))


def test_springer_witness_lifting():
    t = Qt.gen()
    # both residue forms anisotropic over Q: anisotropic over Q(t)
    form = QuadraticForm.diagonal(Qt, [Qt.from_int(3), t, -2 * t])
    assert isotropy(form).is_anisotropic
    # odd-parity residue class <1, -1> carries the witness here
    form2 = QuadraticForm.diagonal(Qt, [Qt.from_int(3), t, -t])
    v2 = isotropy(form2)
    assert v2.is_isotropic and Qt.is_zero(form2.evaluate(v2.witness))
    # witness lifting across valuations: t^3 slot needs a t-power rescale
    form3 = QuadraticForm.diagonal(Qt, [Qt.from_int(3), t * t * t, -t])
    v3 = isotropy(form3)
    assert v3.is_isotropic and Qt.is_zero(form3.evaluate(v3.witness))


def test_witt_decompose_examples():
    hyp = QuadraticForm.hyperbolic_plane(QQ)
    wd = witt_decompose(hyp)
    assert wd.hyperbolic_count == 1 and wd.kernel.n == 0
    wd = witt_decompose(QuadraticForm.diagonal(F5, [1, 1, 1, 1]))
    assert wd.hyperbolic_count == 2
    # radical contribution counts toward the Witt index
    deg = QuadraticForm.diagonal(F5, [1, 0, -1])
    wd = witt_decompose(deg)
    assert wd.radical_dim == 1 and wd.hyperbolic_count == 1
    assert wd.witt_index == 2


def test_witt_index_additivity():
    rng = seeded(17)
    hyp = QuadraticForm.hyperbolic_plane(QQ)
    for _ in range(10):
        phi = random_nonsingular_form(QQ, rng.choice([2, 3]), rng, size=3)
        base = witt_index(phi)
        assert witt_index(phi.orthogonal_sum(hyp)) == base + 1


def test_definiteness_over_real_quadratic():
    K = QuadraticFieldExtension(QQ, 0, 2)
    w = K.gen()
    n_hamilton = QuadraticForm.diagonal(K, [1, 1, 1, 1])
    v = isotropy(n_hamilton)
    assert v.is_anisotropic and v.method == "definiteness"
    mixed = QuadraticForm.diagonal(K, [K.one(), -w])  # sqrt2 is positive at one embedding
    v = isotropy(mixed)
    assert v.decided


def test_definiteness_agrees_with_leading_minors():
    # Sylvester: the signs on an orthogonal basis against the leading minors,
    # at both real embeddings of Q(sqrt d) and at none of Q(i)
    rng = seeded(35)
    fields = [QuadraticFieldExtension(QQ, 0, d) for d in (2, 3, 5, 7, -1)]
    seen = {True: 0, False: 0}
    while sum(seen.values()) < 1000:
        K = rng.choice(fields)
        n = rng.randint(1, 5)

        def entry():
            return K.from_pair(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))

        if rng.random() < 0.5:
            form = QuadraticForm.diagonal(K, [entry() for _ in range(n)])
        else:
            form = QuadraticForm(K, [[entry() if j >= i else K.zero() for j in range(n)] for i in range(n)])
        if not form.classify().nonsingular:
            continue
        definite = leading_minor_definiteness(form)
        assert definiteness_certificate(form) == definite, form
        seen[definite] += 1
    assert seen[True] >= 100 and seen[False] >= 100, seen


def test_dim2_square_test_over_quadratic_field():
    K = QuadraticFieldExtension(QQ, 0, 2)
    w = K.gen()
    form = QuadraticForm.diagonal(K, [K.one(), -(w + 3)])  # 3+sqrt2 = N? not a square
    v = isotropy(form)
    assert v.decided
    sq = QuadraticForm.diagonal(K, [K.one(), -(3 + 2 * w + w * w)])  # -(1+w)^2... (1+w)^2 = 3+2w
    v2 = isotropy(QuadraticForm.diagonal(K, [K.one(), -(3 + 2 * w)]))
    assert v2.is_isotropic


def test_hm_isotropic_implies_search_witness():
    rng = seeded(71)
    checked = 0
    while checked < 30:
        dim = rng.randint(2, 4)
        entries = [rng.choice([v for v in range(-10, 11) if v]) for _ in range(dim)]
        form = QuadraticForm.diagonal(QQ, entries)
        verdict = hasse_minkowski(form)
        checked += 1
        if verdict.is_isotropic:
            found = bounded_search(form, 40)
            assert found.is_isotropic


def test_radical_shortcut():
    form = QuadraticForm.diagonal(QQ, [1, 0, -3])
    v = isotropy(form)
    assert v.is_isotropic and v.method == "radical"


def test_witt_radical_bookkeeping_char2():
    F4 = FiniteField(2, 2)
    w = F4.gen()
    # [1,1] (isotropic over F4) + <w> + a zero line
    phi = QuadraticForm.binary(F4, F4.one(), F4.one()).orthogonal_sum(
        QuadraticForm.diagonal(F4, [w, F4.zero()])
    )
    wd = witt_decompose(phi)
    assert wd.radical_dim == 1
    assert wd.hyperbolic_count == 1
    assert wd.kernel.n == 1
    assert wd.witt_index == 2


def test_remark1_over_finite_extension():
    from albertkit import etale_quadratic, remark1_check

    F3 = FiniteField(3)
    ext9 = etale_quadratic(F3, (0, -1))
    K9 = ext9
    phi = QuadraticForm.diagonal(K9, [K9.from_int(1), K9.from_int(2)])
    assert remark1_check(ext9, phi)


def test_structured_vs_enumeration_sampled_larger_fields():
    from reference import enumeration_isotropy, structured_finite_isotropy

    rng = seeded(73)
    for field in (FiniteField(7), FiniteField(3, 2)):
        elems = list(field.elements())
        for _ in range(25):
            dim = rng.randint(1, 6)
            rows = [
                [rng.choice(elems) if j >= i else field.zero() for j in range(dim)]
                for i in range(dim)
            ]
            form = QuadraticForm(field, rows)
            assert enumeration_isotropy(form).status == structured_finite_isotropy(form)


def test_char2_function_field_oracle():
    F2 = FiniteField(2)
    F2t = RationalFunctionField(F2, "t")
    t = F2t.gen()
    # [1, t]: isotropic iff X^2 + X + t solvable: it is not (odd degree)
    blk = QuadraticForm.binary(F2t, F2t.one(), t)
    assert isotropy(blk).is_anisotropic
    # [1, t^2+t] is isotropic (X = t works)
    blk2 = QuadraticForm.binary(F2t, F2t.one(), t * t + t)
    v = isotropy(blk2)
    assert v.is_isotropic
    # dimension 6 forms over a C2 field always end up isotropic
    big = blk
    for _ in range(2):
        big = big.orthogonal_sum(blk)
    v = isotropy(big)
    assert v.is_isotropic


def test_factoring_stops_at_the_trial_division_bound():
    # a ternary form over Q is decided at the primes of its coefficients;
    # trial division to sqrt(p*q) ran for minutes on 60-bit primes p, q
    p, q = 1152921504606847009, 1152921504606847067
    start = time.perf_counter()
    assert _factor_int(p * q) is None
    verdict = isotropy(QuadraticForm.diagonal(QQ, [1, 1, -p * q]))
    assert (verdict.status, verdict.method) == ("unknown", "factor-bound")
    assert time.perf_counter() - start < 1.0
    # a cofactor below the square of the bound has no smaller divisor: prime
    P = 1099511627689  # the largest prime below 2^40 = TRIAL_DIVISION_BOUND^2
    assert TRIAL_DIVISION_BOUND**2 == 2**40
    assert _factor_int(-12 * P) == {2: 2, 3: 1, P: 1}
    # x^2 + y^2 = 3P z^2 has no solution over Q_3; the places include P
    verdict = isotropy(QuadraticForm.diagonal(QQ, [1, 1, -3 * P]))
    assert (verdict.status, verdict.method) == ("anisotropic", "hasse-minkowski")


def test_the_witness_scan_stops_at_its_draw_budget():
    # P = 1 mod 4 is a sum of two squares, so <1, 1, -P> is isotropic, but
    # its zeros have height near sqrt(P) = 2^20: the scan gives up, in time
    P = 1099511627689
    start = time.perf_counter()
    verdict = isotropy(QuadraticForm.diagonal(QQ, [1, 1, -P]))
    assert (verdict.status, verdict.method) == ("unknown", "budget")
    assert time.perf_counter() - start < 10.0


def test_the_cli_search_over_a_quadratic_field_stops_at_its_budget(tmp_path, capsys):
    # no complete method applies to a ternary indefinite form over Q(sqrt d):
    # the search gives up after search.SEARCH_DRAWS vectors, in time
    start = time.perf_counter()
    for d, diag in ((2, ["1", "1", "-7"]), (-1, ["1", "-3", "5"])):
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"field": {"base": "Q", "ext": "x^2-(0)*x-(%d)" % d}, "diag": diag}))
        assert main(["isotropy", "--form", str(path)]) == 3
        assert capsys.readouterr().out == "unknown [budget]\n"
    assert time.perf_counter() - start <= 6.0


# F_3(t)(w) with w^2 = t, and with w^2 = w + t
F3T_SQRT_T = {"base": "F(3)(t)", "ext": "x^2-(0)*x-(t)"}
F3T_AS = {"base": "F(3)(t)", "ext": "x^2-(1)*x-(t)"}
# forms of dimension 5 over F_3(t)(w) and F_5(t)(w): no complete method
# applies, and the scan gives up after search.SEARCH_DRAWS vectors
BUDGETED_FORMS = [
    (F3T_SQRT_T, ["1", "t", "t^2+1", "w", "t*w+1"]),
    (F3T_SQRT_T, ["1", "w", "t", "t*w", "t^2"]),
    (F3T_AS, ["1", "t", "t+1", "w", "t*w"]),
]


def _run_isotropy(tmp_path, capsys, field, diag):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"field": field, "diag": diag}))
    code = main(["isotropy", "--form", str(path)])
    out = capsys.readouterr().out
    assert "Traceback" not in out and out.count("\n") == 1, out
    return code, out.rstrip("\n")


def test_the_cli_decides_dimensions_1_and_2_on_every_field(tmp_path, capsys):
    cases = [
        ("F(2)(t)", ["t"], "anisotropic [dim1]"),
        ("F(4)(t)", ["t+1"], "anisotropic [dim1]"),
        ("Q(t)", ["t+1"], "anisotropic [dim1]"),
        ("Q(t)", ["1", "-t-1"], "anisotropic [square-test]"),
        ("F(3)(t)", ["t", "t^2+t"], "anisotropic [square-test]"),
    ]
    for field, diag, expected in cases:
        assert _run_isotropy(tmp_path, capsys, field, diag) == (0, expected)


def test_totally_singular_forms_with_no_radical_are_anisotropic(tmp_path, capsys):
    # diagonal forms in characteristic 2 have a zero polar form: phi is then
    # additive, its zeros are its radical, and an empty radical proves
    # anisotropy (the search alone answered unknown [budget])
    for field, diag in (
        ("F(2)(t)", ["1", "t"]),
        ("F(2)(t)", ["t^2+t+1", "t+1"]),
        ("F(4)(t)", ["1", "t"]),
        ("F(4)(t)", ["u", "t+u"]),
    ):
        assert _run_isotropy(tmp_path, capsys, field, diag) == (0, "anisotropic [totally-singular]")
    # u is a square in F_4, so the radical of <1, u> is not 0: (1 + u)^2 + u = 0
    assert _run_isotropy(tmp_path, capsys, "F(4)(t)", ["1", "u"]) == (0, "isotropic [radical] witness=['1+u', '1']")


def test_the_cli_scans_over_function_field_extensions_stop_at_their_budget(tmp_path, capsys):
    # each of these ran past 40 s before the scan had a budget; now each
    # takes about 2.5-3.5 s of CPU (CPU time, so a busy machine does not
    # fail the bound)
    for field, diag in BUDGETED_FORMS:
        start = time.process_time()
        assert _run_isotropy(tmp_path, capsys, field, diag) == (3, "unknown [budget]")
        assert time.process_time() - start < 10.0
    # an isotropic form whose first zero lies past the budget is unknown too
    diag = ["1", "2", "t", "2*t", "w"]
    ext = {"base": "F(5)(t)", "ext": "x^2-(0)*x-(t)"}
    assert _run_isotropy(tmp_path, capsys, ext, diag) == (3, "unknown [budget]")


def test_the_cli_prints_a_form_it_refuses_as_malformed(tmp_path, capsys):
    code, out = _run_isotropy(tmp_path, capsys, "F(2)(t)", ["1", "t", "t+1"])
    assert code == 1
    assert out.startswith("malformed: form: radical computation over imperfect characteristic-2 fields")


def test_binary_forms_are_decided_by_the_square_test():
    # over Q(t), F_3(t) and F_3(t)(sqrt t) a binary form is decided by the
    # square test; wherever the search finds a zero, the verdict agrees
    rng = seeded(33)
    F3t = RationalFunctionField(F3, "t")
    isotropic = 0
    for field, height in ((Qt, 2), (F3t, 2), (QuadraticFieldExtension(F3t, 0, F3t.gen()), 1)):
        small = [c for c in scalar_candidates(field, height) if c]
        for k in range(12):
            a = b = field.zero()
            while field.is_zero(a) or field.is_zero(b):
                a, b = field.random_element(rng, 2), field.random_element(rng, 2)
            if k % 2:
                c = rng.choice(small)
                b = -a * c * c  # <a, -a c^2> is isotropic, with the zero (c, 1)
            form = QuadraticForm.diagonal(field, [a, b])
            verdict = isotropy(form)
            assert verdict.method == "square-test"
            assert verdict.is_isotropic or not k % 2
            if verdict.is_isotropic:
                isotropic += 1
                isotropic_verdict(form, verdict.witness, "square-test")
            found = bounded_search(form, height)
            if found.decided:
                assert found.is_isotropic and verdict.is_isotropic
    assert isotropic >= 18
