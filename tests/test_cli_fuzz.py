"""Seeded fuzz test of `albertkit isotropy`: every run ends, in bounded time,
with one line and a documented exit code.

Forms of dimension 1-5 with small coefficients, diagonal or upper
triangular, over Q, F_3, Q(t), F_2(t), F_3(t), Q(sqrt 2) and F_3(t)(sqrt t)
go through `cli.main` in process.  Exit 0 is a decided verdict, 3 an
unknown one and 1 a form the oracles refuse (`malformed: form: ...`).
Times are CPU seconds of the test process, so a busy machine does not
fail them.
"""

import contextlib
import io
import json
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from albertkit.cli import main  # noqa: E402

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
        out = io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(["isotropy", "--form", str(path)])
        elapsed = time.process_time() - start
        text = out.getvalue()
        assert code in (0, 1, 3), (doc, text)
        assert "Traceback" not in text and text.count("\n") == 1, (doc, text)
        assert (code == 1) == text.startswith("malformed: "), (doc, text)
        assert elapsed < PER_RUN_S, (doc, elapsed)

    start = time.process_time()
    run()
    assert time.process_time() - start < 15.0
