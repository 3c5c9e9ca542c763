"""Equivalence harness, certificates, JSON round trips and the CLI."""

import copy
import gc
import importlib
import json
import pkgutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from reference import extension_to_spec

import albertkit
from albertkit import (
    QQ,
    AlgebraError,
    FiniteField,
    Instance,
    InternalContradiction,
    MalformedCertificate,
    QuadraticFieldExtension,
    RationalFunctionField,
    check_equivalence,
    generate_instance,
    norm_form,
    validate_disjoint_witness,
    verify_certificate,
    witt_decompose,
)
from albertkit.cli import _build_quat, build_parser, main
from albertkit.harness import FAMILIES, CondVerdict, report_json_bytes
from albertkit.isotropy import anisotropic_verdict, unknown_verdict
from albertkit.jsonio import (
    MAX_DEGREE,
    MAX_DEN_DEGREE,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_FIELD_ORDER,
    MAX_NESTING,
    field_to_spec,
    parse_element,
    parse_extension,
    parse_field,
    parse_form,
)
from albertkit.search import DEFAULT_HEIGHT
from albertkit.transfer import transfer

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "albertkit.cli", *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


def test_field_spec_roundtrip():
    for spec in ("Q", "F(5)", "F(4):w^2+w+1", "Q(t)", "F(2)(t)", "F(9):w^2+1"):
        field = parse_field(spec)
        again = parse_field(field_to_spec(field))
        assert again == field


def test_extension_spec_roundtrip():
    base = QQ
    for spec in ("split", "x^2-2", "x^2-x-1", "x^2-(-1)"):
        ext = parse_extension(base, spec)
        again = parse_extension(base, extension_to_spec(ext))
        assert again == ext


@pytest.mark.parametrize("family", FAMILIES)
def test_instance_build_hands_out_the_ring_that_q_lives_over(family):
    for seed in (0, 1):
        F, K, Q = generate_instance(family, seed).build()
        assert Q.ring is K and K.base is F


def test_element_parse_formats():
    Qt = RationalFunctionField(QQ, "t")
    x = parse_element(Qt, "(t^2-1)/(t+1)")
    assert x == Qt.gen() - Qt.one()
    F4 = FiniteField(2, 2)
    assert parse_element(F4, "1+u") == F4.one() + F4.gen()


def test_form_literal_diag_shorthand():
    form = parse_form({"field": "Q", "diag": [1, -1]})
    assert form.n == 2 and form.upper[0][0] == 1


def test_named_instance_hamilton():
    inst = Instance("quad-K-over-Q", 0, "Q", "x^2-2", "0", "-1", "-1")
    rep = check_equivalence(inst, path="both")
    assert rep.cond_i.status == rep.cond_ii.status == "yes"
    assert rep.cond_iii_not_division.status == "yes"
    assert rep.consistent
    # (iii) witness is the vector presented by y = i
    F = QQ
    wit = rep.cond_iii_not_division.witness
    assert list(wit) == [F.one()] + [F.zero()] * 5
    # (ii) witness is 2 + sqrt(2) i
    doc = rep.to_json()
    assert doc["cond_ii"]["witness"] == ["2", "w", "0", "0"]
    assert any("transfer path" in d for d in rep.derivations)


TRANSFER_WITNESS_LINE = (
    "transfer path: conj(u) w from an isotropic plane of s_* n_Q converts to an isotropic Albert vector"
)


@pytest.mark.parametrize(
    "family, seed",
    [("quad-K-over-Q", 3), ("quad-K-over-Q", 5), ("char2-finite", 0), ("char2-function-field", 18)],
)
def test_transfer_path_decides_over_F_only(family, seed, monkeypatch):
    # the transfer route needs isotropy over F only: an isotropy call on a
    # form over K fails the test at once.  Only witt_decompose calls
    # isotropy on this route, through albertkit.isotropy's own binding.
    isotropy_module = importlib.import_module("albertkit.isotropy")
    real = isotropy_module.isotropy

    def spy(form, height=DEFAULT_HEIGHT):
        if isinstance(form.field, QuadraticFieldExtension):
            raise AssertionError("isotropy called over %s" % form.field.name)
        return real(form, height=height)

    monkeypatch.setattr(isotropy_module, "isotropy", spy)
    inst = generate_instance(family, seed)
    rep = check_equivalence(inst, path="both")
    assert rep.consistent and rep.cond_i.status == "yes"
    assert rep.derivations[-1] == TRANSFER_WITNESS_LINE
    assert not any("skipped" in d for d in rep.derivations)
    if family == "char2-function-field":
        # the first isotropic vector u of s_* n_Q has n_Q(u) = 0 here
        _, ext, Q = inst.build()
        nq = norm_form(Q)
        u = ext.unrealify_vec(witt_decompose(transfer(ext, nq)).pairs[0][0])
        assert ext.is_zero(nq.evaluate(u))


def _albert_verdict(monkeypatch, verdict):
    """Make cor_is_division read `verdict` for every Albert form."""
    monkeypatch.setattr(importlib.import_module("albertkit.corestriction"), "isotropy", lambda form, height: verdict)


@pytest.mark.parametrize("family", ["quad-K-over-Q", "char2-finite"])
def test_undecided_albert_form_takes_a_direct_generator(family, monkeypatch):
    _albert_verdict(monkeypatch, unknown_verdict(DEFAULT_HEIGHT))
    rep = check_equivalence(generate_instance(family, 0))
    assert (rep.cond_iii_not_division.status, rep.cond_iii_not_division.method) == ("yes", "from-(ii)-converter")
    assert (rep.cond_ii.status, rep.cond_ii.method) == ("yes", "direct-search")
    assert (rep.cond_i.status, rep.cond_i.method) == ("yes", "from-(ii)")
    assert rep.consistent
    assert verify_certificate(rep.to_json())


def test_undecided_albert_form_without_a_direct_generator(monkeypatch):
    _albert_verdict(monkeypatch, unknown_verdict(DEFAULT_HEIGHT))
    rep = check_equivalence(generate_instance("split-K-over-Q", 0))
    for cond in (rep.cond_i, rep.cond_ii):
        assert (cond.status, cond.method, cond.searched) == ("unknown", "search-budget", 3001)
    assert rep.cond_iii_not_division.status == "unknown" and rep.consistent


def test_forged_anisotropy_is_caught(monkeypatch):
    # a (i) witness that converts to an isotropic Albert vector falsifies
    # the "no", the verifier re-runs the real oracle, and `check` exits 2
    _albert_verdict(monkeypatch, anisotropic_verdict("forged"))
    rep = check_equivalence(generate_instance("quad-K-over-Q", 0))
    assert rep.cond_iii_not_division.status == "no"
    assert (rep.cond_i.status, rep.cond_i.method) == ("yes", "direct-search")
    assert (rep.cond_ii.status, rep.cond_ii.method) == ("unknown", "not-attempted")
    assert rep.consistent is False
    assert verify_certificate(rep.to_json()) is False
    assert main(["check", "--family", "quad-K-over-Q", "--seed", "0"]) == 2


def test_named_instance_split_hamilton_pair():
    inst = Instance("split-K-over-Q", 0, "Q", "split", [0, 0], ["-1", "-1"], ["-1", "-1"])
    rep = check_equivalence(inst)
    assert rep.cond_i.status == rep.cond_ii.status == rep.cond_iii_not_division.status == "yes"
    assert rep.consistent


def test_named_instance_division_over_Qt():
    inst = Instance("split-K-over-Qt", 0, "Q(t)", "split", [0, 0], ["-1", "t"], ["-1", "2"])
    rep = check_equivalence(inst)
    assert rep.cond_iii_not_division.status == "no"
    assert rep.cond_iii_not_division.method == "springer"
    assert rep.cond_i.status == "no" and rep.cond_ii.status == "no"
    assert rep.consistent


def test_reports_deterministic():
    for fam in ("quad-K-over-Q", "char2-finite"):
        inst = generate_instance(fam, 3)
        b1 = report_json_bytes(check_equivalence(inst))
        b2 = report_json_bytes(check_equivalence(generate_instance(fam, 3)))
        assert b1 == b2


def test_report_bytes_do_not_depend_on_hashes():
    # fields hash by identity and strings by PYTHONHASHSEED: neither may reach
    # a report, so two processes with other hash seeds print the same bytes
    script = (
        "import sys\n"
        "from albertkit.harness import FAMILIES, check_equivalence, generate_instance, report_json_bytes\n"
        "sys.stdout.buffer.write(b'\\n'.join(report_json_bytes(check_equivalence(generate_instance(f, 0)))"
        " for f in FAMILIES))\n"
    )
    expected = b"\n".join(report_json_bytes(check_equivalence(generate_instance(f, 0))) for f in FAMILIES)
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "1")
    ]
    for run in runs:
        out, _ = run.communicate(timeout=60)
        assert run.returncode == 0 and out == expected


def test_check_equivalence_leaves_no_finite_field_to_the_cycle_collector():
    # a field and its interned elements refer to each other: a field built per
    # instance would be freed only by the cycle collector, with its elements
    items = [generate_instance("char2-finite", 0), generate_instance("char2-function-field", 1)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for inst in items:
            assert check_equivalence(inst).consistent
        gc.collect()
        unreachable = [obj for obj in gc.garbage if isinstance(obj, FiniteField)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert unreachable == []


def test_certificate_roundtrip_and_tamper():
    inst = Instance("quad-K-over-Q", 0, "Q", "x^2-2", "0", "-1", "-1")
    rep = check_equivalence(inst)
    doc = rep.to_json()
    assert verify_certificate(doc)
    bad = copy.deepcopy(doc)
    bad["cond_iii_not_division"]["witness"][1] = "7"  # breaks isotropy
    assert not verify_certificate(bad)
    bad = copy.deepcopy(doc)
    bad["cond_ii"]["witness"][1] = "0"
    assert not verify_certificate(bad)
    with pytest.raises(MalformedCertificate):
        verify_certificate({"schema": "albertkit/1"})
    with pytest.raises(MalformedCertificate):
        verify_certificate({"not": "a report"})


def test_hostile_exponent_is_rejected_quickly():
    # t^N costs N multiplications; uncapped, t^100000 over F_2(t) runs for minutes
    doc = check_equivalence(generate_instance("char2-function-field", 0)).to_json()
    start = time.perf_counter()
    assert verify_certificate(doc)
    genuine = time.perf_counter() - start  # building the Albert form, about 0.5 s
    bad = copy.deepcopy(doc)
    bad["cond_iii_not_division"]["witness"][4] = "t^100000"
    start = time.perf_counter()
    assert not verify_certificate(bad)
    assert time.perf_counter() - start < genuine + 1.0
    bad = copy.deepcopy(doc)
    bad["instance"]["Q"]["a"] = "t^100000+1"
    start = time.perf_counter()
    with pytest.raises(MalformedCertificate):
        verify_certificate(bad)
    assert time.perf_counter() - start < 1.0
    F2t = parse_field("F(2)(t)")
    assert parse_element(F2t, "t^%d" % MAX_EXPONENT).num.degree == MAX_EXPONENT
    with pytest.raises(AlgebraError):
        parse_element(F2t, "t^%d" % (MAX_EXPONENT + 1))


def test_hostile_nested_power_is_rejected_quickly():
    # each exponent is capped, but a power of a power or a long product grows
    # quadratically in cost: ((1+t)^64)^8 alone took 0.6 s over Q(t) uncapped
    doc = check_equivalence(generate_instance("char2-function-field", 0)).to_json()
    start = time.perf_counter()
    assert verify_certificate(doc)
    genuine = time.perf_counter() - start
    for hostile in ("((1+t)^64)^64", "*".join(["(1+t)"] * 2000)):
        bad = copy.deepcopy(doc)
        bad["cond_iii_not_division"]["witness"][4] = hostile
        start = time.perf_counter()
        assert not verify_certificate(bad)
        assert time.perf_counter() - start < genuine + 1.0
    Qt = parse_field("Q(t)")
    hostile = (
        "((1+t)^64)^64",
        "*".join(["(1+t)"] * 2000),
        "*".join("(t/(t+%d))" % k for k in range(1, 300)),  # a gcd at every step
        "+".join("1/(t+%d)" % k for k in range(1, 300)),
        "((" + "9" * MAX_DIGITS + ")^8)^8",
    )
    start = time.perf_counter()
    for text in hostile:
        with pytest.raises(AlgebraError):
            parse_element(Qt, text)
    assert time.perf_counter() - start < genuine + 1.0
    assert parse_element(Qt, "(1+t)^%d" % MAX_DEGREE).num.degree == MAX_DEGREE
    with pytest.raises(AlgebraError):
        parse_element(Qt, "(1+t)^%d*t" % MAX_DEGREE)
    chain = "*".join("(t/(t+%d))" % k for k in range(1, MAX_DEN_DEGREE + 1))
    assert parse_element(Qt, chain).den.degree == MAX_DEN_DEGREE


def test_zero_division_and_deep_nesting_are_refused():
    # each used to escape the verifier as ZeroDivisionError or RecursionError
    hostile = ("1/0", "0/0", "1/(1-1)", "t/(t-t)", "w/0", "(" * 250 + "1" + ")" * 250)
    for family in FAMILIES:
        doc = check_equivalence(generate_instance(family, 0)).to_json()
        F, ext, _ = Instance.from_json(doc["instance"]).build()
        for text in hostile:
            for field in (F, ext):
                with pytest.raises(AlgebraError):
                    parse_element(field, text)
            for key in ("cond_iii_not_division", "cond_ii"):
                assert doc[key]["status"] == "yes"
                bad = copy.deepcopy(doc)
                bad[key]["witness"][0] = text
                assert verify_certificate(bad) is False
            bad = copy.deepcopy(doc)
            bad["instance"]["Q"]["a"] = text
            with pytest.raises(MalformedCertificate):
                verify_certificate(bad)
    Qt = parse_field("Q(t)")
    assert parse_element(Qt, "(" * MAX_NESTING + "t" + ")" * MAX_NESTING) == Qt.gen()
    with pytest.raises(AlgebraError):
        parse_element(Qt, "(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1))


def test_long_integer_is_rejected_quickly():
    # int() raises ValueError above 4300 digits; it must not escape the verifier
    doc = check_equivalence(generate_instance("split-K-over-Q", 0)).to_json()
    for key, value in (("F", "F(" + "9" * 5000 + ")"), ("Q", dict(doc["instance"]["Q"], a="9" * 5000))):
        bad = copy.deepcopy(doc)
        bad["instance"][key] = value
        start = time.perf_counter()
        with pytest.raises(MalformedCertificate):
            verify_certificate(bad)
        assert time.perf_counter() - start < 1.0
    assert parse_element(QQ, "9" * MAX_DIGITS) == 10**MAX_DIGITS - 1
    with pytest.raises(AlgebraError):
        parse_element(QQ, "9" * (MAX_DIGITS + 1))


def test_json_integers_obey_the_literal_cap_and_booleans_are_not_numbers():
    # a JSON int of any size parsed, while the same digits as a string were
    # refused, and true and false read as 1 and 0
    doc = check_equivalence(Instance("quad-K-over-Q", 0, "Q", "x^2-2", "0", "-1", "-1")).to_json()
    assert doc["cond_iii_not_division"]["witness"] == ["1", "0", "0", "0", "0", "0"]
    big = 10**MAX_DIGITS
    for one, zero in ((True, False), (big, 0), (-big, 0), (int("9" * 4000), 0)):
        bad = copy.deepcopy(doc)
        bad["instance"]["Q"]["a"] = one
        with pytest.raises(MalformedCertificate):
            verify_certificate(bad)
        bad = copy.deepcopy(doc)
        # a multiple of the witness, so only the parser can refuse it
        bad["cond_iii_not_division"]["witness"] = [one] + [zero] * 5
        assert not verify_certificate(bad)
    assert parse_element(QQ, big - 1) == big - 1 and parse_element(QQ, 1 - big) == 1 - big
    for value in (big, True, False):
        with pytest.raises(AlgebraError):
            parse_element(QQ, value)


def test_a_semiprime_parameter_cannot_stall_the_verifier():
    # trial division to sqrt(n) ran for minutes on p*q with 60-bit primes p, q
    # (in squarefree_part, called from hasse_minkowski)
    p, q = 1152921504606847009, 1152921504606847067
    derived = {"status": "no", "method": "derived: (i)=>(iii) sound converter + albert hasse-minkowski"}
    doc = {
        "schema": "albertkit/1",
        "instance": {"F": "Q", "K": "split", "Q": {"alpha": 0, "beta": [str(p * q), 1], "a": [-1, -1]}, "height": 1},
        "cond_i": derived,
        "cond_ii": derived,
        "cond_iii_not_division": {"status": "no", "method": "hasse-minkowski"},
    }
    start = time.perf_counter()
    assert not verify_certificate(doc)
    assert time.perf_counter() - start < 1.0
    # over Q(t) the Springer residue forms carry p*q: check leaves (iii) unknown
    inst = Instance("custom", 0, "Q(t)", "split", ["0", "0"], ["%d*t" % (p * q), "-1"], ["t", "-1"], height=1)
    start = time.perf_counter()
    report = check_equivalence(inst)
    assert report.cond_iii_not_division.status == "unknown" and report.consistent
    assert report.cond_iii_not_division.method == "factor-bound"  # the residue's method, not the search's
    doc = report.to_json()
    doc["cond_iii_not_division"] = {"status": "no", "method": "springer"}
    assert not verify_certificate(doc)
    assert time.perf_counter() - start < 5.0


def test_a_large_isotropic_witness_cannot_stall_the_verifier():
    # the signature proves the Albert form isotropic; its smallest zero lies
    # far past the witness scan's draw budget, which once had no bound
    p, q = 1152921504606847009, 1152921504606847067  # the primes after 2^60
    derived = {"status": "no", "method": "derived: (i)=>(iii) sound converter + albert signature"}
    doc = {
        "schema": "albertkit/1",
        "instance": {
            "F": "Q", "K": "split", "Q": {"alpha": 0, "beta": [str(p), "-1"], "a": [str(q), "-1"]}, "height": 1,
        },
        "cond_i": derived,
        "cond_ii": derived,
        "cond_iii_not_division": {"status": "no", "method": "signature"},
    }
    start = time.perf_counter()
    assert not verify_certificate(doc)
    assert time.perf_counter() - start < 10.0


def test_large_field_spec_is_rejected_quickly():
    start = time.perf_counter()
    with pytest.raises(AlgebraError):
        parse_field("F(100000007)")  # prime, above MAX_FIELD_ORDER
    with pytest.raises(AlgebraError):
        parse_field("F(%d)" % (MAX_FIELD_ORDER + 1))
    assert time.perf_counter() - start < 1.0
    assert parse_field("F(65521)") == FiniteField(65521)  # largest prime below the cap
    assert parse_field("F(27)") == FiniteField(3, 3)
    for spec in ("F(1)", "F(6)", "F(100)"):
        with pytest.raises(AlgebraError):
            parse_field(spec)


def test_unknown_fields_verify_when_witnesses_hold():
    inst = Instance("split-K-over-Qt", 0, "Q(t)", "split", [0, 0], ["-1", "t"], ["-1", "2"])
    doc = check_equivalence(inst).to_json()
    doc["cond_i"]["status"] = "unknown"
    doc["cond_ii"]["status"] = "unknown"
    assert verify_certificate(doc)


def test_instance_height_is_capped():
    # a "no" verdict re-runs the isotropy oracle at the instance's height
    inst = Instance("split-K-over-Qt", 0, "Q(t)", "split", [0, 0], ["-1", "t"], ["-1", "2"])
    doc = check_equivalence(inst).to_json()
    assert doc["cond_iii_not_division"]["status"] == "no"
    for height in ("x", None, True, 0, -1, 2.0, DEFAULT_HEIGHT + 1, 10**9):
        bad = copy.deepcopy(doc)
        bad["instance"]["height"] = height
        with pytest.raises(MalformedCertificate):
            verify_certificate(bad)
    for height in (1, DEFAULT_HEIGHT):
        good = copy.deepcopy(doc)
        good["instance"]["height"] = height
        assert Instance.from_json(good["instance"]).height == height
    del doc["instance"]["height"]
    assert verify_certificate(doc)


def test_instance_of_the_wrong_shape_is_malformed():
    # each of these used to escape the verifier as TypeError or AttributeError
    doc = check_equivalence(generate_instance("char2-finite", 0)).to_json()
    assert verify_certificate(doc)
    edits = (
        ("instance", []),
        ("instance", "x"),
        ("Q", "x"),
        ("Q", ["1", "w", "1"]),
        ("F", 5),
        ("F", None),
        ("K", 5),
        ("K", ["split"]),
    )
    for key, value in edits:
        bad = copy.deepcopy(doc)
        if key == "instance":
            bad["instance"] = value
        else:
            bad["instance"][key] = value
        with pytest.raises(MalformedCertificate):
            verify_certificate(bad)
    for key in ("Q", "F", "K"):
        bad = copy.deepcopy(doc)
        del bad["instance"][key]
        with pytest.raises(MalformedCertificate):
            verify_certificate(bad)


def test_instance_seed_and_family_are_typed():
    # a string seed used to pass from_json and crash report_to_text
    doc = check_equivalence(generate_instance("char2-finite", 0)).to_json()
    for key, value in (("seed", "abc"), ("seed", True), ("seed", 1.5), ("seed", None), ("family", 5), ("family", None)):
        bad = copy.deepcopy(doc)
        bad["instance"][key] = value
        with pytest.raises(MalformedCertificate):
            Instance.from_json(bad["instance"])
        with pytest.raises(MalformedCertificate):
            verify_certificate(bad)
    inst = Instance.from_json(doc["instance"])
    assert (inst.family, inst.seed) == ("char2-finite", 0)


def test_cli_check_reports_a_malformed_instance(tmp_path):
    # these used to escape `check` as a TypeError and a MalformedCertificate traceback
    path = tmp_path / "inst.json"
    good = generate_instance("char2-finite", 0).to_json()
    no_field = {key: value for key, value in good.items() if key != "F"}
    for doc in (dict(good, seed="abc"), no_field):
        path.write_text(json.dumps(doc))
        out = _run_cli("check", "--instance", str(path))
        assert out.returncode == 1 and out.stdout.startswith("malformed: ") and not out.stderr


def test_cli_reports_a_malformed_input_file(tmp_path, capsys):
    # each of these used to escape the subcommand as a traceback
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    ext = write("ext.json", json.dumps({"base": "Q", "ext": "x^2-2"}))
    form = write("form.json", json.dumps({"field": "Q", "diag": [1, 1]}))
    # well-shaped files with a bad value used to escape as an AlgebraError
    bad_forms = [
        write(name, text)
        for name, text in (
            ("list.json", "[1, 2]"),
            ("upper.json", json.dumps({"field": "Q", "upper": 5})),
            ("diag.json", json.dumps({"field": "Q", "diag": 5})),
            ("list-entry.json", json.dumps({"field": "Q", "diag": [[1]]})),
            ("zero-division.json", json.dumps({"field": "Q", "diag": ["1/0"]})),
            ("not-json.txt", "not json {"),
        )
    ]
    bad = bad_forms + [
        write(name, text)
        for name, text in (
            ("field.json", json.dumps({"field": 7, "diag": [1]})),
            ("foo-field.json", json.dumps({"field": "foo", "diag": [1]})),
            ("no-ext.json", json.dumps({"base": "Q"})),
            ("foo-base.json", json.dumps({"base": "foo", "ext": "x^2-2"})),
            ("foo-instance.json", json.dumps(dict(generate_instance("quad-K-over-Q", 0).to_json(), F="foo"))),
        )
    ]
    for path in bad:
        for argv in (
            ["isotropy", "--form", path],
            ["transfer", "--ext", path, "--form", form],
            ["descend", "--ext", path, "--form", form],
            ["quat", "--spec", path, "--cmd", "split"],
            ["clifford", "--form", path, "--cmd", "arf"],
            ["cor", "--instance", path, "--cmd", "albert"],
            ["check", "--instance", path],
            ["verify", "--report", path],
        ):
            assert main(argv) == 1, argv
            assert capsys.readouterr().out.startswith("malformed: "), argv
    for path in bad_forms:
        for argv in (["transfer", "--ext", ext, "--form", path], ["descend", "--ext", ext, "--form", path]):
            assert main(argv) == 1, argv
            assert capsys.readouterr().out.startswith("malformed: "), argv
    # quat --cmd nrd reads its element from --x
    quat = write("quat.json", json.dumps({"base": "Q", "ext": "x^2-2", "Q": {"alpha": "0", "beta": "-1", "a": "-1"}}))
    for x in ([], ["--x", "not json {"], ["--x", '"1"'], ["--x", '["1", "0", "0"]'], ["--x", '["1/0", "0", "0", "0"]']):
        argv = ["quat", "--spec", quat, "--cmd", "nrd"] + x
        assert main(argv) == 1, argv
        assert capsys.readouterr().out.startswith("malformed: "), argv
    assert main(["quat", "--spec", quat, "--cmd", "nrd", "--x", '["1", "1", "0", "0"]']) == 0
    assert capsys.readouterr().out == "Nrd = 2\n"


def test_cli_reports_an_unreadable_input_file_in_one_line(tmp_path):
    # a missing file ended in a FileNotFoundError traceback from _load_json
    missing = str(tmp_path / "missing.json")
    cases = (
        (["verify", "--report", missing], missing, "No such file or directory"),
        (["check", "--instance", missing], missing, "No such file or directory"),
        (["verify", "--report", str(tmp_path)], str(tmp_path), "Is a directory"),
    )
    for argv, path, reason in cases:
        out = _run_cli(*argv)
        assert (out.returncode, out.stdout, out.stderr) == (1, "malformed: cannot read %s: %s\n" % (path, reason), "")


def test_package_attributes_are_its_submodules():
    # no re-exported function may shadow a module, so that
    # `import albertkit.transfer as m` gives the module
    names = [info.name for info in pkgutil.iter_modules(albertkit.__path__)]
    assert {"isotropy", "transfer", "clifford"} <= set(names)
    for name in names:
        module = importlib.import_module("albertkit." + name)
        assert getattr(albertkit, name) is module, name


def test_report_of_the_wrong_shape_is_malformed():
    # the first four used to escape the verifier as TypeError or IndexError,
    # the two bad statuses were accepted
    doc = check_equivalence(generate_instance("split-K-over-Q", 0)).to_json()
    assert verify_certificate(doc)
    edits = (
        ("cond_ii", None, []),
        ("cond_iii_not_division", None, []),
        ("cond_ii", "witness", ["1"]),
        ("cond_ii", "witness", None),
        ("cond_iii_not_division", "status", []),
        ("cond_i", "status", {}),
        ("cond_i", None, "x"),
        ("cond_ii", "status", "maybe"),
        ("cond_ii", "witness", "1234"),
        ("cond_ii", "witness", ["1", "0", "0", "0", "0"]),
        ("cond_iii_not_division", "witness", None),
        ("cond_iii_not_division", "witness", ["1"]),
        ("cond_iii_not_division", "witness", "100000"),
        ("cond_iii_not_division", "witness", {"0": "1"}),
    )
    for key, field, value in edits:
        bad = copy.deepcopy(doc)
        if field is None:
            bad[key] = value
        else:
            bad[key][field] = value
        with pytest.raises(MalformedCertificate):
            verify_certificate(bad)
    for key in ("cond_i", "cond_ii", "cond_iii_not_division"):
        bad = copy.deepcopy(doc)
        del bad[key]["status"]
        with pytest.raises(MalformedCertificate):
            verify_certificate(bad)


def test_accepted_cond_ii_tampers_are_genuine_witnesses():
    # criterion 9's single-entry cond_ii tampering: the verifier accepts some
    # of these on split-K-over-Q, and each must be a witness in its own right;
    # "1" over an entry that already parses to 1 (such as ["1", "1"]) changes
    # nothing, so it is not counted
    accepted = 0
    for seed in (0, 3, 6):
        doc = check_equivalence(generate_instance("split-K-over-Q", seed)).to_json()
        _, ext, Q = Instance.from_json(doc["instance"]).build()
        K = ext
        wit = doc["cond_ii"]["witness"]
        for pos in range(len(wit)):
            bad = copy.deepcopy(doc)
            bad["cond_ii"]["witness"][pos] = "1" if wit[pos] != "1" else "w"
            if K.is_zero(parse_element(K, bad["cond_ii"]["witness"][pos]) - parse_element(K, wit[pos])):
                continue
            if not verify_certificate(bad):
                continue
            accepted += 1
            x = Q.elem(tuple(parse_element(K, c) for c in bad["cond_ii"]["witness"]))
            data = validate_disjoint_witness(Q, x, etale_required=True)
            # x is a root of its reduced characteristic polynomial over F
            assert (x * x - x.scale(K.from_base(data["trd"])) + Q.one().scale(K.from_base(data["nrd"]))).is_zero()
    assert accepted >= 2


def test_generate_instance_families_deterministic():
    for fam in FAMILIES:
        a = generate_instance(fam, 11).to_json()
        b = generate_instance(fam, 11).to_json()
        assert a == b
    with pytest.raises(Exception):
        generate_instance("no-such-family", 0)


def test_cli_gen_check_verify(tmp_path):
    out = _run_cli("gen", "--family", "char2-finite", "--seed", "2")
    assert out.returncode == 0
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(out.stdout)
    chk = _run_cli("check", "--instance", str(inst_path), "--json")
    assert chk.returncode == 0
    reports = json.loads(chk.stdout)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(reports[0]))
    ver = _run_cli("verify", "--report", str(rep_path))
    assert ver.returncode == 0 and "OK" in ver.stdout
    # tampered report is rejected through the CLI as well: a scalar witness
    # can never generate a disjoint quadratic algebra
    tampered = json.loads(rep_path.read_text())
    tampered["cond_ii"]["witness"][1:] = ["0", "0", "0"]
    rep_path.write_text(json.dumps(tampered))
    ver = _run_cli("verify", "--report", str(rep_path))
    assert ver.returncode == 1 and "REJECTED" in ver.stdout


def test_cli_isotropy_and_exit_codes(tmp_path):
    form_path = tmp_path / "f.json"
    form_path.write_text(json.dumps({"field": "Q", "diag": [1, 1]}))
    out = _run_cli("isotropy", "--form", str(form_path), "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["status"] == "anisotropic"
    form_path.write_text(json.dumps({"field": "Q(t)", "dim": 2, "upper": [["1", "1"], ["0", "t"]]}))
    out = _run_cli("isotropy", "--form", str(form_path), "--height", "2")
    assert out.returncode in (0, 3)


def test_cli_quat_and_clifford(tmp_path):
    spec = tmp_path / "q.json"
    spec.write_text(json.dumps({"base": "Q", "ext": "x^2-2", "E": {"alpha": "0", "beta": "-1"}, "a": "-1"}))
    out = _run_cli("quat", "--spec", str(spec), "--cmd", "split", "--json")
    assert out.returncode == 0 and json.loads(out.stdout)["status"] == "division"
    out = _run_cli("quat", "--spec", str(spec), "--cmd", "nrd", "--x", '["1","1","0","0"]', "--json")
    assert out.returncode == 0
    form_path = tmp_path / "c.json"
    form_path.write_text(json.dumps({"field": "Q", "diag": [1, -1]}))
    out = _run_cli("clifford", "--form", str(form_path), "--cmd", "arf", "--json")
    assert out.returncode == 0 and json.loads(out.stdout)["trivial"] is True


def test_cli_registers_only_the_options_a_subcommand_reads():
    parser = build_parser()
    for argv in (
        ["isotropy", "--form", "f.json", "--height", "2"],
        ["descend", "--ext", "e.json", "--form", "f.json", "--height", "2"],
        ["quat", "--spec", "q.json", "--cmd", "split", "--height", "2"],
        ["cor", "--instance", "i.json", "--cmd", "division", "--height", "2"],
        ["check", "--family", "char2-finite", "--path", "both", "--json"],
    ):
        parser.parse_args(argv)
    for argv in (
        ["check", "--family", "char2-finite", "--height", "3"],
        ["check", "--family", "char2-finite", "--path", "transfer"],
        ["gen", "--family", "char2-finite", "--height", "3"],
        ["verify", "--report", "r.json", "--json"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_cor_random_checks_must_not_be_negative(tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_text(json.dumps(generate_instance("quad-K-over-Q", 0).to_json()))
    with pytest.raises(SystemExit) as exc:
        main(["cor", "--instance", str(path), "--cmd", "fcheck", "--random-checks", "-5"])
    assert exc.value.code == 2
    assert "--random-checks: must be at least 0, got -5" in capsys.readouterr().err
    assert main(["cor", "--instance", str(path), "--cmd", "fcheck", "--random-checks", "0"]) == 0
    assert capsys.readouterr().out == "f(xi)^2 = phi(xi) verified (6 basis, 0 random)\n"


def test_height_must_be_positive(tmp_path, capsys):
    # --height 0 and -3 ran no search and printed "unknown [budget]" with exit 3
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"field": "Q(t)", "diag": ["1", "t", "-t^2-1"]}))
    for height in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["isotropy", "--form", str(path), "--height", height])
        assert exc.value.code == 2
        assert "--height: must be at least 1, got %s" % height in capsys.readouterr().err
    assert main(["isotropy", "--form", str(path), "--height", "1"]) == 3
    assert capsys.readouterr().out == "unknown [budget]\n"


def test_instance_commands_cap_the_height(tmp_path, capsys):
    # quat and cor build an Instance, and Instance.from_json refuses a height
    # above DEFAULT_HEIGHT; `quat --cmd subalg --height 13` used to run
    assert DEFAULT_HEIGHT == 12
    spec = tmp_path / "q.json"
    spec.write_text(json.dumps({"base": "Q", "ext": "x^2-2", "Q": {"alpha": "0", "beta": "-1", "a": "-1"}}))
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(generate_instance("quad-K-over-Q", 0).to_json()))
    for argv in (["quat", "--spec", str(spec), "--cmd", "subalg"], ["cor", "--instance", str(inst), "--cmd", "division"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--height", "13"])
        assert exc.value.code == 2
        assert "--height: must be at most 12, got 13" in capsys.readouterr().err
        assert build_parser().parse_args(argv + ["--height", "12"]).height == 12
    assert build_parser().parse_args(["isotropy", "--form", "f.json", "--height", "13"]).height == 13


def test_clifford_arf_refuses_a_form_in_one_line(tmp_path):
    # a singular or odd-dimensional form ended in an AlgebraError traceback,
    # and dimension 8 in the Clifford construction's dimension cap
    cases = (
        ({"field": "Q", "diag": [1, 1, 1]}, 1, "malformed: form: Arf invariant needs an even-dimensional form\n"),
        ({"field": "Q", "dim": 2, "upper": [["1", "2"], ["0", "1"]]}, 1, "malformed: form: Arf invariant needs a nonsingular form\n"),
        ({"field": "Q", "diag": [1, 1, 1, 1, 1, 1, 1, -7]}, 0, "Arf invariant trivial: False\n"),
        ({"field": "Q", "diag": [1, 1, 1, 1, -1, -1, -1, -1]}, 0, "Arf invariant trivial: True\n"),
    )
    for k, (doc, code, text) in enumerate(cases):
        path = tmp_path / ("f%d.json" % k)
        path.write_text(json.dumps(doc))
        out = _run_cli("clifford", "--form", str(path), "--cmd", "arf")
        assert (out.returncode, out.stdout, out.stderr) == (code, text, ""), doc
    # the dump of the 64x64 Clifford multiplication table is gone
    with pytest.raises(SystemExit):
        build_parser().parse_args(["clifford", "--form", "f.json", "--cmd", "build"])


def test_check_count_must_be_positive(capsys):
    # --count 0 printed "check needs --instance or --family" although --family was given
    for count in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--family", "quad-K-over-Q", "--count", count])
        assert exc.value.code == 2
        assert "--count: must be at least 1, got %s" % count in capsys.readouterr().err


def test_split_k_is_refused_in_one_line(tmp_path):
    # transfer, descend and the split test need a field K; F x F used to end in a traceback
    ext = tmp_path / "e.json"
    ext.write_text(json.dumps({"base": "Q", "ext": "split"}))
    form = tmp_path / "f.json"
    form.write_text(json.dumps({"field": "Q", "diag": [1, 1]}))
    spec = tmp_path / "q.json"
    spec.write_text(json.dumps({"ext": {"base": "Q", "ext": "split"}, "Q": {"alpha": [0, 0], "beta": [1, 2], "a": [3, 5]}}))
    for argv in (
        ["transfer", "--ext", str(ext), "--form", str(form)],
        ["descend", "--ext", str(ext), "--form", str(form)],
        ["quat", "--spec", str(spec), "--cmd", "split"],
    ):
        out = _run_cli(*argv)
        assert out.returncode == 4, argv
        assert "Traceback" not in out.stdout + out.stderr, argv
        assert out.stdout.startswith("split K: ") and out.stdout.count("\n") == 1, argv


def test_cor_build_checks_the_natural_map_and_builds_no_albert_form(tmp_path, capsys, monkeypatch):
    path = tmp_path / "i.json"
    path.write_text(json.dumps(generate_instance("split-K-over-Q", 0).to_json()))

    def no_albert(*args):
        raise AssertionError("cor build built the Albert form")

    monkeypatch.setattr(albertkit.cli, "albert_form", no_albert)
    assert main(["cor", "--instance", str(path), "--cmd", "build"]) == 0
    assert capsys.readouterr().out == "corestriction built: dim 16, natural map bijective\n"
    monkeypatch.setattr(albertkit.cli, "natural_map_bijective", lambda cor: False)
    with pytest.raises(InternalContradiction, match="not bijective"):
        main(["cor", "--instance", str(path), "--cmd", "build"])


def test_element_reprs_and_the_subalg_text_are_pinned(tmp_path, capsys):
    # the printed forms of quaternion, tensor-square and Cor elements
    from albertkit import QuaternionAlgebra, TensorSquareAlgebra, build_corestriction, etale_quadratic

    ext = etale_quadratic(QQ, (0, 2))
    K = ext
    Q = QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1))
    one, e, z, ez = Q.basis()
    x = one.scale(K.from_int(2)) + e.scale(K.gen()) - ez.scale(K.from_pair(QQ.one(), QQ.coerce(-3) / 2))
    assert [repr(q) for q in (x, Q.zero(), -z)] == ["2 + (w)e + (-1+3/2*w)ez", "0", "(-1)z"]
    D = etale_quadratic(QQ, "split")
    Qs = QuaternionAlgebra(D, D.pair(0, 1), D.pair(-1, 2), D.pair(-1, 3))
    one_s, _, _, ez_s = Qs.basis()
    assert repr(one_s.scale(D.pair(1, 2)) + ez_s.scale(D.pair(0, -1))) == "(1,2) + ((0,-1))ez"
    t = TensorSquareAlgebra(Q)
    assert repr(t.xi_of(x)) == "(4)g0(x)0 + (w)g0(x)1 + (-1+3/2*w)g0(x)3 + (-1*w)g1(x)0 + (-1-3/2*w)g3(x)0"
    assert repr(t.zero()) == "0"
    cor = build_corestriction(ext, Q)
    assert repr(cor.one()) == "(1)e0"
    assert repr(cor.elem(cor.express(cor.tensor.xi_of(x)))) == "(4)e0 + (-1)e2 + (-1)e9 + (-3/2)e10"
    assert repr(cor.elem([QQ.from_int(k % 3 - 1) / 2 for k in range(16)])) == (
        "(-1/2)e0 + (1/2)e2 + (-1/2)e3 + (1/2)e5 + (-1/2)e6 + (1/2)e8 + (-1/2)e9 + (1/2)e11 + (-1/2)e12 + (1/2)e14 + (-1/2)e15"
    )
    # subalg prints the check route's witness, which the verifier's check accepts
    specs = (
        ({"base": "Q", "ext": "x^2-(-5)", "Q": {"alpha": "0", "beta": "0-3*w", "a": "2+2*w"}}, 1, False, "-5 + (-5+w)e + (5+w)z"),
        ({"base": "F(2)", "ext": "x^2-x-1", "Q": {"alpha": "1", "beta": "w", "a": "w"}}, 12, False, "w + (1)e + (w)ez"),
        ({"ext": {"base": "Q", "ext": "split"}, "Q": {"alpha": [1, 1], "beta": [0, 0], "a": [3, 5]}}, 12, True, "(1/2,3/2) + ((1,-1))e"),
    )
    for k, (spec, height, any_quadratic, witness) in enumerate(specs):
        path = tmp_path / ("q%d.json" % k)
        path.write_text(json.dumps(spec))
        flags = ["--height", str(height)] + ["--any-quadratic"] * any_quadratic
        assert main(["quat", "--spec", str(path), "--cmd", "subalg"] + flags) == 0
        assert capsys.readouterr().out == "witness: %s\n" % witness
        report = check_equivalence(_build_quat(spec, height))
        x = report.cond_i.witness if any_quadratic else report.cond_ii.witness
        assert repr(x) == witness
        validate_disjoint_witness(report.Q, x, etale_required=not any_quadratic)


def test_subalg_answers_through_the_check_route(tmp_path, capsys, monkeypatch):
    # subalg searched 200,001 candidates and printed "budget exhausted" with exit 3
    # on both: char2-function-field 0 has an etale generator, and split-K-over-Qt 17
    # none by Springer's theorem
    inst = generate_instance("split-K-over-Qt", 17)
    specs = (
        {"base": "F(2)(t)", "ext": "x^2-x-t", "Q": {"alpha": "t", "beta": "t", "a": "1"}},
        {"base": inst.f_spec, "ext": inst.k_spec, "Q": {"alpha": inst.q_alpha, "beta": inst.q_beta, "a": inst.q_a}},
    )
    path = tmp_path / "q.json"
    docs = []
    for spec in specs:
        path.write_text(json.dumps(spec))
        report = check_equivalence(_build_quat(spec, DEFAULT_HEIGHT))
        Q = report.Q
        assert main(["quat", "--spec", str(path), "--cmd", "subalg", "--json"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
        if docs[-1]["status"] == "found":
            x = Q.elem(tuple(parse_element(Q.ring, c) for c in docs[-1]["witness"]))
            assert x == report.cond_ii.witness
            validate_disjoint_witness(Q, x, etale_required=True)
    assert [(d["status"], d["method"]) for d in docs] == [
        ("found", "albert-isotropic-to-generator"),
        ("none", "derived: (i)=>(iii) sound converter + albert springer"),
    ]
    assert (docs[0]["searched"], docs[1]["witness"], docs[1]["searched"]) == (None, None, 3001)
    assert main(["quat", "--spec", str(path), "--cmd", "subalg"]) == 0
    assert capsys.readouterr().out == "none [derived: (i)=>(iii) sound converter + albert springer]\n"
    # an undecided condition exits 3, an inconsistent report 2, as check does
    check = albertkit.cli.check_equivalence
    unknown = CondVerdict("unknown", None, "search-budget", 3001)
    monkeypatch.setattr(albertkit.cli, "check_equivalence", lambda inst: replace(check(inst), cond_ii=unknown))
    assert main(["quat", "--spec", str(path), "--cmd", "subalg"]) == 3
    assert capsys.readouterr().out == "unknown [search-budget]\n"
    monkeypatch.setattr(albertkit.cli, "check_equivalence", lambda inst: replace(check(inst), consistent=False))
    assert main(["quat", "--spec", str(path), "--cmd", "subalg"]) == 2
    capsys.readouterr()
