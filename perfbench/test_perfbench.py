"""Tests for the benchmark's own helpers: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def ak():
    return run.load_albertkit()


# -- the tail rule -------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_beyond():
    assert stats.tail_percentile(list(range(1, 101))) == (90, 90, 10)
    assert stats.tail_percentile(list(range(1, 1001))) == (99, 990, 10)
    # 11 samples: only percentiles up to 9 leave ten samples above them
    assert stats.tail_percentile(list(range(11))) == (9, 0, 10)
    assert stats.tail_percentile(list(range(10))) is None


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 3.0, 2.0] * 10
    assert stats.tail_percentile(values) == stats.tail_percentile(sorted(values)) == (75, 3.0, 10)


# -- the stratified median ----------------------------------------------------


def test_strata_p50_holds_where_the_median_of_a_mix_jumps():
    # two strata, one item of each per round, one ten times dearer
    cheap, dear = [1.0, 1.1, 0.9, 1.0], [10.0, 11.0, 9.0, 10.0]
    run_a = [v for pair in zip(cheap, dear) for v in pair]
    run_b = run_a[:-1]  # the same items, but the run ends one item earlier
    assert stats.median(run_a) == pytest.approx(5.05)
    assert stats.median(run_b) == pytest.approx(1.1)
    strata = workloads.WORKLOADS["certify-rational"].slot_strata
    assert strata == (0, 1)
    assert stats.strata_p50(run_a, strata, [1, 1]) == pytest.approx((1.0 * 10.0) ** 0.5)
    assert stats.strata_p50(run_b, strata, [1, 1]) == pytest.approx((1.0 * 10.0) ** 0.5)


def test_strata_p50_weights_strata_by_their_share_of_a_round():
    assert workloads.WORKLOADS["certify-function-field"].slot_strata == (0, 0, 1, 1, 2)
    values = [2.0, 2.0, 4.0, 4.0, 8.0]
    expected = 2.0 ** ((2 * 1 + 2 * 2 + 1 * 3) / 5)
    assert stats.strata_p50(values, (0, 0, 1, 1, 2), [2, 2, 1]) == pytest.approx(expected)
    # a stratum no item reached is left out
    assert stats.strata_p50([2.0, 2.0], (0, 0, 1, 1, 2), [2, 2, 1]) == pytest.approx(2.0)


# -- passes ------------------------------------------------------------------


def test_passes_repeat_the_list_and_keep_each_items_fastest_run(monkeypatch):
    workload = workloads.WORKLOADS["certify-rational"]
    items = [(types.SimpleNamespace(family="split-K-over-Q", seed=s), 0) for s in range(4)]
    clock = iter([0.3, 0.2, 0.5, 0.4, 0.1, 0.6, 0.5, 0.4])

    def fake_run_item(ak, wl, inst, fmap_seed):
        return workloads.ItemResult("split-K-over-Q:%d" % inst.seed, next(clock), {})

    monkeypatch.setattr(workloads, "run_item", fake_run_item)
    passes, _, _ = run.run_passes(None, workload, items, 0.0, float("inf"))
    assert len(passes) == 1  # a run makes at least one whole pass
    passes.append(run.run_pass(None, workload, items, float("inf")))
    assert [r.seconds for r in run.fastest_runs(passes)] == [0.1, 0.2, 0.5, 0.4]


# -- set-up ------------------------------------------------------------------


def test_setup_only_run_exits_before_any_item(capsys):
    assert run.main(["--workload", "cor-audit", "--seed", "0", "--setup-only"]) == 0
    assert capsys.readouterr().out == ""


def test_setup_is_timed_in_separate_processes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    median, times = run.measure_setup(workloads.WORKLOADS["certify-rational"], 0, 1)
    assert len(times) == 2 and all(t > 0 for t in times)
    assert median == stats.median(times)


# -- self time -----------------------------------------------------------------


def _span(name, start, end, parent, item="x:0"):
    return [name, start, end, parent, item]


def test_self_time_from_nested_spans():
    spans = [
        _span("item", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("a", 5.0, 9.0, 0),
    ]
    assert stats.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = stats.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "busy_s": 7.0, "self_s": 6.0}
    assert stats.root_self_sums(spans) == [("x:0", 10.0, 10.0)]


def test_nested_spans_pass_the_nesting_check():
    spans = [
        _span("item", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("a", 4.0, 9.0, 0),
        _span("item", 10.0, 12.0, -1, "x:1"),
    ]
    assert stats.nesting_errors(spans) == []


@pytest.mark.parametrize("bad, reason", [
    (_span("a", 5.0, 0.0, 0), "never ended"),
    (_span("a", 8.0, 11.0, 0), "outside its parent"),
    (_span("b", 0.5, 2.0, 1), "outside its parent"),
    (_span("a", 3.5, 5.0, 0), "overlaps an earlier sibling"),
    (_span("a", 5.0, 6.0, 0, "y:0"), "its parent's is x:0"),
    (_span("a", 5.0, 6.0, 9), "not an earlier span"),
])
def test_spans_that_do_not_nest_are_caught(bad, reason):
    spans = [_span("item", 0.0, 10.0, -1), _span("a", 1.0, 4.0, 0), bad]
    errors = stats.nesting_errors(spans)
    assert [idx for idx, _ in errors] == [2]
    assert reason in errors[0][1]


def test_self_times_are_checked_against_the_item_clock():
    result = workloads.ItemResult("x:0", 9.999, {})
    spans = [_span("item", 0.0, 10.0, -1), _span("a", 1.0, 4.0, 0)]
    assert run.self_time_mismatches(stats.root_self_sums(spans), [result]) == []
    # a root that runs well past the item's own clock does not account for it
    late = [_span("item", 0.0, 10.5, -1), _span("a", 1.0, 4.0, 0)]
    assert len(run.self_time_mismatches(stats.root_self_sums(late), [result])) == 1
    # nor does a root labelled with another item, or a missing root
    other = [_span("item", 0.0, 10.0, -1, "y:0")]
    assert len(run.self_time_mismatches(stats.root_self_sums(other), [result])) == 1
    assert len(run.self_time_mismatches([], [result])) == 1


def test_recursive_span_busy_time_counts_the_outermost_only():
    spans = [_span("f", 0.0, 8.0, -1), _span("g", 1.0, 7.0, 0), _span("f", 2.0, 6.0, 1)]
    row = stats.layer_totals(spans)["f"]
    assert row["busy_s"] == 8.0 and row["calls"] == 2
    assert row["self_s"] == pytest.approx(2.0 + 4.0)


def test_tracer_spans_add_up_and_uninstall_restores(ak):
    harness = ak.harness
    original = harness.albert_form
    inst = harness.generate_instance("char2-finite", 0)
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.albert_form is not original  # harness imports the name
        root = tracer.begin_item(workloads.item_id(inst))
        result = workloads.run_certify(ak, inst)
        tracer.end_item(root)
    finally:
        tracer.uninstall()
    assert harness.albert_form is original
    tracer.install()  # a traced run installs once per item
    tracer.uninstall()
    assert harness.albert_form is original
    names = {s[stats.NAME] for s in tracer.spans}
    assert {"harness.check_equivalence", "harness.verify_certificate", "corestriction.albert_form"} <= names
    assert stats.nesting_errors(tracer.spans) == []
    assert [s[stats.ITEM] for s in tracer.spans] == ["char2-finite:0"] * len(tracer.spans)
    assert run.self_time_mismatches(stats.root_self_sums(tracer.spans), [result]) == []
    counts = tracer.field_type_counts()
    assert counts.get("fields.Field.is_zero.calls.Fq", 0) > 0


def test_stepped_generator_spans_each_step_and_counts_yields():
    tracer = Tracer()

    def stream():
        yield 1
        tracer.begin("inner")
        tracer.end(len(tracer.spans) - 1)
        yield 2
        yield 3

    root = tracer.begin_item("x:0")
    wrapped = tracer.stepped("gen", "gen.yielded", stream)
    for value in wrapped():
        if value == 2:
            break
    tracer.end_item(root)
    names = [s[stats.NAME] for s in tracer.spans]
    assert names == ["item", "gen", "gen", "inner"]
    assert tracer.spans[3][stats.PARENT] == 2  # work inside a step nests under it
    assert tracer.counters["gen.yielded"] == 2
    assert stats.nesting_errors(tracer.spans) == []


# -- workload streams ----------------------------------------------------------


def _ids(workload, seed, count, ak):
    items = workloads.prepare_items(workloads.WORKLOADS[workload], seed, count, ak.harness.generate_instance)
    return [(workloads.item_id(inst), fmap_seed) for inst, fmap_seed in items]


def test_seed_gives_the_same_items_every_time(ak):
    for name in workloads.WORKLOADS:
        assert _ids(name, 3, 40, ak) == _ids(name, 3, 40, ak)
        assert _ids(name, 3, 40, ak) != _ids(name, 4, 40, ak)


def test_default_seed_starts_with_the_acceptance_batch(ak):
    seed = workloads.DEFAULT_SEED
    rational = [i for i, _ in _ids("certify-rational", seed, 100, ak)]
    assert sorted(rational) == sorted(
        ["split-K-over-Q:%d" % s for s in range(50)] + ["quad-K-over-Q:%d" % s for s in range(50)]
    )
    assert "split-K-over-Q:44" in rational
    function_field = [i for i, _ in _ids("certify-function-field", seed, 100, ak)]
    assert sorted(function_field) == sorted(
        ["split-K-over-Qt:%d" % s for s in range(40)]
        + ["char2-finite:%d" % s for s in range(40)]
        + ["char2-function-field:%d" % s for s in range(20)]
    )
    assert "char2-function-field:7" in function_field


def test_audit_rounds_cover_split_and_field_k_in_both_characteristics(ak):
    items = workloads.prepare_items(workloads.WORKLOADS["cor-audit"], 0, 6, ak.harness.generate_instance)
    kinds = {(inst.family, inst.k_spec == "split") for inst, _ in items}
    assert len(kinds) == 6
    assert ("char2-function-field", True) in kinds and ("char2-function-field", False) in kinds


# -- the correctness gate ------------------------------------------------------


def test_rejected_certificate_fails_the_item(ak):
    inst = ak.harness.generate_instance("char2-finite", 0)
    assert workloads.run_certify(ak, inst).failure is None
    rejecting = types.SimpleNamespace(harness=types.SimpleNamespace(
        check_equivalence=ak.harness.check_equivalence,
        report_json_bytes=ak.harness.report_json_bytes,
        verify_certificate=lambda doc: False,
    ))
    assert workloads.run_certify(rejecting, inst).failure == "certificate rejected"


def test_forced_failure_counts_in_fail_ratio(monkeypatch):
    workload = workloads.WORKLOADS["certify-rational"]
    items = [(types.SimpleNamespace(family="split-K-over-Q", seed=s), 0) for s in range(4)]

    def fake_run_item(ak, wl, inst, fmap_seed):
        if inst.seed == 2:
            return workloads.ItemResult("split-K-over-Q:2", 0.01, {}, "raised ValueError: forced")
        return workloads.ItemResult("split-K-over-Q:%d" % inst.seed, 0.01, {"check": 0.005, "verify": 0.005})

    monkeypatch.setattr(workloads, "run_item", fake_run_item)
    attempted, failed, metrics, lines = run.untraced_run(None, workload, items, 0.0, float("inf"), (0.1, [0.1]))
    assert (attempted, failed) == (4, 1)
    assert "fail_ratio       1/4" in lines
    assert any(line.startswith("FAILED split-K-over-Q:2") for line in lines)
    assert metrics["items_per_s"] > 0


def test_raising_item_is_a_failure_not_a_crash(ak):
    broken = types.SimpleNamespace(harness=types.SimpleNamespace(
        check_equivalence=lambda inst: 1 / 0,
    ))
    inst = ak.harness.generate_instance("char2-finite", 0)
    assert workloads.run_certify(broken, inst).failure.startswith("raised ZeroDivisionError")


# -- record.py -----------------------------------------------------------------


def test_record_summarizes_the_printed_item_timings_too():
    import record

    runs = [
        {"workload": "w", "output": ["strata_p50_s     %.4f s  (weighted ...)" % v, "item_max_s       9.0 s  (x:1)"],
         "result": {"metrics": {"setup_s": {"value": 0.1, "unit": "s"}}}}
        for v in (1.0, 2.0, 3.0)
    ]
    table = record.summarize(runs)["w"]
    assert table["strata_p50_s"]["values"] == [1.0, 2.0, 3.0]
    assert table["strata_p50_s"]["median"] == 2.0
    assert "item_max_s" not in table and table["setup_s"]["values"] == [0.1] * 3


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
