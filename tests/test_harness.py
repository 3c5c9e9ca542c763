"""Equivalence harness, certificates, JSON round trips and the CLI."""

import copy
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from albertkit import (
    QQ,
    AlgebraError,
    FiniteField,
    Instance,
    MalformedCertificate,
    RationalFunctionField,
    check_equivalence,
    generate_instance,
    validate_disjoint_witness,
    verify_certificate,
)
from albertkit.cli import build_parser
from albertkit.harness import FAMILIES, report_json_bytes
from albertkit.jsonio import (
    MAX_DEGREE,
    MAX_DEN_DEGREE,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_FIELD_ORDER,
    MAX_NESTING,
    extension_to_spec,
    field_to_spec,
    parse_element,
    parse_extension,
    parse_field,
    parse_form,
)
from albertkit.search import DEFAULT_HEIGHT

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
            for field in (F, ext.ring):
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
        K = ext.ring
        wit = doc["cond_ii"]["witness"]
        for pos in range(len(wit)):
            bad = copy.deepcopy(doc)
            bad["cond_ii"]["witness"][pos] = "1" if wit[pos] != "1" else "w"
            if K.is_zero(parse_element(K, bad["cond_ii"]["witness"][pos]) - parse_element(K, wit[pos])):
                continue
            if not verify_certificate(bad):
                continue
            accepted += 1
            x = Q.element(tuple(parse_element(K, c) for c in bad["cond_ii"]["witness"]))
            data = validate_disjoint_witness(Q, ext, x, etale_required=True)
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
