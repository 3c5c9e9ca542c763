"""Seeded fuzz tests of the CLI: every run ends, in bounded time, with one
line and a documented exit code.

`albertkit isotropy` takes forms of dimension 1-5 with small coefficients,
diagonal or upper triangular, over Q, F_3, Q(t), F_2(t), F_3(t), Q(sqrt 2)
and F_3(t)(sqrt t).  Exit 0 is a decided verdict, 3 an unknown one and 1 a
form the oracles refuse (`malformed: form: ...`).  `albertkit verify` takes
the certificates of seeds 0-2 of the five families with statuses, methods,
witness entries and instance strings changed, and keys dropped; it prints
`certificate OK` (exit 0), `certificate REJECTED` or `malformed: ...`
(exit 1).  `transfer` and `descend` take forms of dimension 1-3 over
Q(sqrt 2), Q(i), F_3(t)(sqrt t) and the split algebra Q x Q (`split K: `,
exit 4), `clifford --cmd arf` the forms `isotropy` takes, `cor` the
instances of seeds 0-2 of the five families with refused values and
dropped keys, `quat --cmd nrd|split|subalg` the quaternion specs of the
same mutated instances, and `gen` every family at seeds 0, -1 and 10^40.
Everything runs through `cli.main` in process.  Times are CPU seconds of
the test process, so a busy machine does not fail them.
"""

import contextlib
import copy
import io
import json
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from albertkit.cli import main  # noqa: E402
from albertkit.harness import FAMILIES, Instance, check_equivalence, generate_instance  # noqa: E402

# field spec and small coefficients ("0" first, where shrinking goes)
FIELDS = {
    "Q": ("Q", ["0", "1", "-1", "2", "-3", "1/2", "5"]),
    "F3": ("F(3)", ["0", "1", "2"]),
    "Qt": ("Q(t)", ["0", "1", "-1", "2", "t", "-t", "t+1", "t^2-2", "1/t"]),
    "F2t": ("F(2)(t)", ["0", "1", "t", "t+1", "t^2+t+1", "1/t"]),
    "F3t": ("F(3)(t)", ["0", "1", "2", "t", "2*t", "t+1", "t^2+1"]),
    "Qsqrt2": ({"base": "Q", "ext": "x^2-(0)*x-(2)"}, ["0", "1", "-1", "3", "w", "-w", "1+w"]),
    "F3t_sqrt_t": ({"base": "F(3)(t)", "ext": "x^2-(0)*x-(t)"}, ["0", "1", "2", "t", "w", "t*w", "1+w"]),
}
PER_RUN_S = 10.0  # a budgeted scan of a dense 5-dimensional form over Q(t) takes about 6
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _run_cli(argv):
    """(exit code, printed text, CPU seconds) of one in-process CLI run."""
    out = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return code, out.getvalue(), time.process_time() - start


# the line each exit code but 0 begins with
FAILURE_LINES = {1: "malformed: ", 3: "unknown: ", 4: "split K: "}


def _run_to_one_line(argv, ok_line, codes, case):
    """Run argv and check its contract: one line, beginning with ok_line at
    exit 0 and with its FAILURE_LINES prefix at each other code in codes."""
    code, text, elapsed = _run_cli(argv)
    case = (argv, case, text)
    assert code in (0,) + codes, case
    assert "Traceback" not in text and text.count("\n") == 1, case
    assert text.startswith(FAILURE_LINES.get(code, ok_line)), case
    assert elapsed < PER_RUN_S, (case, elapsed)


@st.composite
def form_docs(draw, max_dim=5, keys=st.sampled_from(sorted(FIELDS))):
    spec, pool = FIELDS[draw(keys)]
    n = draw(st.integers(1, max_dim))
    entry = st.sampled_from(pool)
    if draw(st.booleans()):
        return {"field": spec, "diag": [draw(entry) for _ in range(n)]}
    return {"field": spec, "upper": [["0" if j < i else draw(entry) for j in range(n)] for i in range(n)]}


def test_isotropy_cli_ends_with_one_line_and_a_documented_exit_code(tmp_path):
    path = tmp_path / "form.json"

    @FUZZ
    @given(form_docs())
    # one form over each field, the refused one among them, ahead of the drawn ones
    @example({"field": "Q", "diag": ["1", "-2"]})
    @example({"field": "F(3)", "upper": [["1", "1"], ["0", "2"]]})
    @example({"field": "Q(t)", "diag": ["1", "t", "-2", "1/t"]})
    @example({"field": "F(2)(t)", "diag": ["1", "t", "t+1"]})
    @example({"field": "F(3)(t)", "diag": ["1", "t", "2*t", "t^2+1", "2"]})
    @example({"field": FIELDS["Qsqrt2"][0], "diag": ["1", "w", "3"]})
    @example({"field": FIELDS["F3t_sqrt_t"][0], "diag": ["w", "t"]})
    def run(doc):
        path.write_text(json.dumps(doc))
        code, text, elapsed = _run_cli(["isotropy", "--form", str(path)])
        assert code in (0, 1, 3), (doc, text)
        assert "Traceback" not in text and text.count("\n") == 1, (doc, text)
        assert (code == 1) == text.startswith("malformed: "), (doc, text)
        assert elapsed < PER_RUN_S, (doc, elapsed)

    start = time.process_time()
    run()
    assert time.process_time() - start < 15.0


# certificate mutations: (path, value), where a value of None drops the key
CONDS = ("cond_i", "cond_ii", "cond_iii_not_division")
VALUES = ("0", "1", "-1", "t", "w", "1+w", "t^64", "2^200", "1/0", "1234567890123456789012345678901234567890")
SPECS = ("Q", "Q(t)", "F(2)(t)", "F(4)", "split", "x^2-2", "x^2-x-t")
STATUSES = ("yes", "no", "unknown", "maybe")
METHODS = ("springer", "enumeration", "hasse-minkowski", "char2-artin-schreier", "totally-singular", "search", "bogus")
# instance strings; the last index reaches a component of a split-K pair
INSTANCE_PATHS = [("instance", "F"), ("instance", "K")] + [
    ("instance", "Q", key) + tail for key in ("alpha", "beta", "a") for tail in ((), (0,), (1,))
]
DROPPABLE = (
    [(key,) for key in ("schema", "instance") + CONDS]
    + [("instance", key) for key in ("F", "K", "Q", "height")]
    + [("instance", "Q", key) for key in ("alpha", "beta", "a")]
    + [(cond, key) for cond in CONDS for key in ("status", "method", "witness")]
)
_cond = st.sampled_from(CONDS)
MUTATIONS = st.one_of(
    st.tuples(st.tuples(_cond, st.just("status")), st.sampled_from(STATUSES)),
    st.tuples(st.tuples(_cond, st.just("method")), st.sampled_from(METHODS)),
    st.tuples(
        st.tuples(_cond, st.just("witness"), st.integers(0, 3))
        | st.tuples(_cond, st.just("witness"), st.integers(0, 3), st.integers(0, 1)),
        st.sampled_from(VALUES),
    ),
    st.tuples(st.sampled_from(INSTANCE_PATHS), st.sampled_from(VALUES + SPECS)),
    st.tuples(st.sampled_from(DROPPABLE), st.none()),
)


def _mutated(doc, mutations):
    """A copy of doc with each mutation applied whose path exists."""
    doc = copy.deepcopy(doc)
    for path, value in mutations:
        node = doc
        for key in path[:-1]:
            if isinstance(node, dict) and key in node or isinstance(node, list) and key < len(node):
                node = node[key]
            else:
                break
        else:
            if value is None and isinstance(node, dict):
                node.pop(path[-1], None)
            elif isinstance(node, dict) or isinstance(node, list) and path[-1] < len(node):
                node[path[-1]] = value
    return doc


def test_verify_cli_ends_with_one_line_and_a_documented_exit_code(tmp_path):
    certificates = [
        check_equivalence(generate_instance(family, seed)).to_json() for family in FAMILIES for seed in range(3)
    ]
    path = tmp_path / "report.json"

    @FUZZ
    @given(st.sampled_from(range(len(certificates))), st.lists(MUTATIONS, min_size=1, max_size=3))
    # one certificate of each family, with each pool value the parser refuses
    @example(0, [(("instance", "Q", "alpha", 0), "t^64")])
    @example(4, [(("instance", "Q", "a"), "2^200")])
    @example(7, [(("cond_ii", "witness", 1, 0), "1/0")])
    @example(9, [(("cond_iii_not_division", "witness", 0), "1234567890123456789012345678901234567890")])
    @example(12, [(("cond_iii_not_division", "status"), "no"), (("cond_iii_not_division", "method"), "search")])
    @example(1, [(("instance",), None)])
    def run(index, mutations):
        path.write_text(json.dumps(_mutated(certificates[index], mutations)))
        code, text, elapsed = _run_cli(["verify", "--report", str(path)])
        case = (index, mutations, text)
        assert "Traceback" not in text and text.count("\n") == 1, case
        if text.startswith("malformed: "):
            assert code == 1, case
        else:
            assert (code, text) in ((0, "certificate OK\n"), (1, "certificate REJECTED\n")), case
        assert elapsed < PER_RUN_S, (case, elapsed)

    run()


# extensions K/F for transfer and descend, with the FIELDS keys whose
# coefficients lie in K
EXTENSIONS = {
    "Qsqrt2": ({"base": "Q", "ext": "x^2-2"}, ("Q", "Qsqrt2")),
    "Qi": ({"base": "Q", "ext": "x^2+1"}, ("Q", "Qsqrt2")),
    "F3t_sqrt_t": ({"base": "F(3)(t)", "ext": "x^2-t"}, ("F3", "F3t", "F3t_sqrt_t")),
    "split": ({"base": "Q", "ext": "split"}, ("Q",)),
}


@st.composite
def ext_form_docs(draw):
    ext, keys = EXTENSIONS[draw(st.sampled_from(sorted(EXTENSIONS)))]
    # mostly coefficients of K, sometimes those of any field of the pool
    return ext, draw(form_docs(3, st.sampled_from(keys) | st.sampled_from(sorted(FIELDS))))


def test_transfer_and_descend_cli_end_with_one_line_and_a_documented_exit_code(tmp_path):
    ext_path, form_path = tmp_path / "ext.json", tmp_path / "form.json"

    @FUZZ
    @given(ext_form_docs())
    # one form over each extension, split K among them, ahead of the drawn ones
    @example((EXTENSIONS["Qsqrt2"][0], {"diag": ["1", "w", "3"]}))
    @example((EXTENSIONS["Qi"][0], {"upper": [["1", "w"], ["0", "-1"]]}))
    @example((EXTENSIONS["F3t_sqrt_t"][0], {"diag": ["w", "t", "1"]}))
    @example((EXTENSIONS["split"][0], {"diag": ["1", "2"]}))
    def run(pair):
        ext, form = pair
        ext_path.write_text(json.dumps(ext))
        form_path.write_text(json.dumps(form))
        paths = ["--ext", str(ext_path), "--form", str(form_path)]
        _run_to_one_line(["transfer"] + paths, "QuadraticForm(", (1, 4), pair)
        _run_to_one_line(["descend"] + paths, "dim psi = ", (1, 3, 4), pair)

    run()


def test_clifford_cli_ends_with_one_line_and_a_documented_exit_code(tmp_path):
    path = tmp_path / "form.json"

    @FUZZ
    @given(form_docs())
    @example({"field": "Q", "diag": ["1", "-1"]})
    @example({"field": "F(2)(t)", "upper": [["1", "1"], ["0", "t"]]})
    @example({"field": "F(3)", "diag": ["1", "2", "1"]})
    def run(doc):
        path.write_text(json.dumps(doc))
        _run_to_one_line(["clifford", "--form", str(path), "--cmd", "arf"], "Arf invariant trivial: ", (1,), doc)

    run()


# instance mutations for cor: the parser's refused values and dropped keys
COR_VALUES = ("t^64", "2^200", "1/0", "1234567890123456789012345678901234567890")
COR_PATHS = [("F",), ("K",)] + [("Q", key) + tail for key in ("alpha", "beta", "a") for tail in ((), (0,), (1,))]
COR_DROPPABLE = [(key,) for key in ("F", "K", "Q", "height", "family", "seed")] + [
    ("Q", key) for key in ("alpha", "beta", "a")
]
COR_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(COR_PATHS), st.sampled_from(COR_VALUES)),
    st.tuples(st.sampled_from(COR_DROPPABLE), st.none()),
)
COR_LINES = {
    "build": "corestriction built: dim 16, natural map bijective\n",
    "albert": "QuadraticForm(",
    "fcheck": "f(xi)^2 = phi(xi) verified",
}


def test_cor_cli_ends_with_one_line_and_a_documented_exit_code(tmp_path):
    instances = [generate_instance(family, seed).to_json() for family in FAMILIES for seed in range(3)]
    path = tmp_path / "instance.json"

    @FUZZ
    @given(
        st.sampled_from(sorted(COR_LINES)),
        st.sampled_from(range(len(instances))),
        st.lists(COR_MUTATIONS, max_size=2),
    )
    # the unmutated instance of each family, then each refused value
    @example("albert", 0, [])
    @example("fcheck", 3, [])
    @example("build", 6, [])
    @example("albert", 9, [])
    @example("fcheck", 12, [])
    @example("albert", 6, [(("Q", "alpha", 0), "t^64")])
    @example("build", 3, [(("Q", "a"), "2^200")])
    @example("fcheck", 9, [(("Q", "beta"), "1/0")])
    @example("albert", 13, [(("K",), "1234567890123456789012345678901234567890")])
    @example("build", 1, [(("Q",), None)])
    def run(cmd, index, mutations):
        path.write_text(json.dumps(_mutated(instances[index], mutations)))
        argv = ["cor", "--instance", str(path), "--cmd", cmd]
        _run_to_one_line(argv, COR_LINES[cmd], (1,), (index, mutations))

    run()


# what `quat` prints at each exit code but 1 (malformed), by command
QUAT_LINES = {
    "nrd": {0: ("Nrd = ",)},
    "split": {0: ("split [", "division ["), 3: ("unknown [",), 4: ("split K: ",)},
    "subalg": {0: ("witness: ", "none ["), 3: ("unknown [",)},
}
# the quaternion spec's key for each instance key
QUAT_KEYS = {"F": "base", "K": "ext", "Q": "Q"}


def test_quat_cli_ends_with_one_line_and_a_documented_exit_code(tmp_path):
    instances = [generate_instance(family, seed).to_json() for family in FAMILIES for seed in range(3)]
    path = tmp_path / "spec.json"

    @FUZZ
    @given(
        st.sampled_from(sorted(QUAT_LINES)),
        st.sampled_from(range(len(instances))),
        st.lists(COR_MUTATIONS, max_size=2),
        st.lists(st.sampled_from(VALUES), min_size=3, max_size=5),
        st.booleans(),
    )
    # each command on the unmutated instance of a family, then the slowest
    # case known (the subalgebra search at alpha = t^64 over Q(t)) and each
    # refused value
    @example("nrd", 0, [], ["1", "0", "0", "1"], False)
    @example("split", 3, [], ["0"] * 4, False)
    @example("subalg", 6, [], ["0"] * 4, True)
    @example("split", 6, [], ["0"] * 4, False)
    @example("nrd", 12, [], ["t", "1", "w", "t^64"], False)
    @example("subalg", 6, [(("Q", "alpha", 0), "t^64")], ["0"] * 4, False)
    @example("split", 3, [(("Q", "a"), "2^200")], ["0"] * 4, False)
    @example("nrd", 9, [], ["1/0", "0", "0", "0"], False)
    @example("subalg", 13, [(("K",), "1234567890123456789012345678901234567890")], ["0"] * 4, False)
    @example("split", 1, [(("Q",), None)], ["0"] * 4, False)
    def run(cmd, index, mutations, x, any_quadratic):
        doc = _mutated(instances[index], mutations)
        path.write_text(json.dumps({QUAT_KEYS[key]: value for key, value in doc.items() if key in QUAT_KEYS}))
        argv = ["quat", "--spec", str(path), "--cmd", cmd]
        if cmd == "nrd":
            argv += ["--x", json.dumps(x)]
        elif cmd == "subalg" and any_quadratic:
            argv.append("--any-quadratic")
        code, text, elapsed = _run_cli(argv)
        case = (argv, index, mutations, text)
        assert code == 1 or code in QUAT_LINES[cmd], case
        assert "Traceback" not in text and text.count("\n") == 1, case
        assert text.startswith(QUAT_LINES[cmd].get(code, ("malformed: ",))), case
        assert elapsed < PER_RUN_S, (case, elapsed)

    run()


@pytest.mark.parametrize("family", FAMILIES)
def test_gen_cli_prints_one_instance_line_for_any_seed(family):
    for seed in (0, -1, 10**40):
        argv = ["gen", "--family", family, "--seed", str(seed), "--json"]
        code, text, elapsed = _run_cli(argv)
        assert code == 0 and text.count("\n") == 1, (argv, text)
        inst = Instance.from_json(json.loads(text))
        assert (inst.family, inst.seed) == (family, seed), argv
        assert elapsed < PER_RUN_S, (argv, elapsed)
