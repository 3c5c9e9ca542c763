"""Seeded fuzz tests of the CLI: every run ends, in bounded time, with one
line and a documented exit code.

`albertkit isotropy` takes forms of dimension 1-5 with small coefficients,
diagonal or upper triangular, over Q, F_3, Q(t), F_2(t), F_3(t), Q(sqrt 2)
and F_3(t)(sqrt t).  Exit 0 is a decided verdict, 3 an unknown one and 1 a
form the oracles refuse (`malformed: form: ...`).  `albertkit verify` takes
the certificates of seeds 0-2 of the five families with statuses, methods,
witness entries and instance strings changed, and keys dropped; it prints
`certificate OK` (exit 0), `certificate REJECTED` or `malformed: ...`
(exit 1).  Everything runs through `cli.main` in process.  Times are CPU
seconds of the test process, so a busy machine does not fail them.
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
from albertkit.harness import FAMILIES, check_equivalence, generate_instance  # noqa: E402

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


@st.composite
def form_docs(draw):
    spec, pool = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 5))
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
