#!/usr/bin/env python3
"""albertkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the sources in ../src, as a
closed loop from one client: items one after another, no threads.  It
checks every item (see workloads.py), prints every metric by name with its
unit, and ends with one JSON line {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9  # set-up processes started per run; setup_s is their median
HARD_STOP_S = 140.0  # start no further item after this, whatever --seconds says

# The gated metrics: the ones every workload has and that hold steady
# across seeds on a shared machine (see README.md for the others, item
# times included, which are printed only).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

FIELD_COUNTS = (
    ("fields.Field.is_zero.calls", ("Q", "Fq", "Qt", "Fqt", "KF")),
    ("etale.SplitAlgebra.is_zero.calls", ("Q", "Qt", "Fqt")),
    ("fields.GFElem.mul.calls", ("Fq",)),
    ("fields.Poly.mul.calls", ("Q", "Fq", "Fqt")),
    ("fields.RatFuncElem.mul.calls", ("Qt", "Fqt")),
    ("fields.QuadExtElem.mul.calls", ("Q", "Fq", "Fqt")),
    ("etale.SplitElem.mul.calls", ("Q", "Qt", "Fqt")),
)
VERDICTS = (
    "signature_search", "hasse-minkowski_search", "signature", "hasse-minkowski",
    "square-test", "definiteness", "springer", "springer-lift", "constant-reduction",
    "search", "enumeration", "char2-artin-schreier", "tsen-lang", "radical",
)

# Every layer metric of the table in README.md, in its order.  A layer
# that does not run on a workload reads 0 there.
PER_LAYER = (
    (
        ("isotropy.hasse_minkowski.busy_s", "s"),
        ("isotropy.hasse_minkowski.calls", "count"),
        ("isotropy.projective_points.yielded", "count"),
        ("isotropy.witness_height.max", "count"),
        ("isotropy.springer_reduce.busy_s", "s"),
        ("isotropy.springer_reduce.calls", "count"),
        ("isotropy.bounded_search.busy_s", "s"),
        ("isotropy.bounded_search.calls", "count"),
        ("isotropy.artin_schreier.busy_s", "s"),
        ("isotropy.artin_schreier.yielded", "count"),
        ("isotropy.isotropy.calls", "count"),
    )
    + tuple(("isotropy.verdict." + v, "count") for v in VERDICTS)
    + (
        ("forms.QuadraticForm.evaluate.calls", "count"),
        ("forms.QuadraticForm.evaluate.busy_s", "s"),
        ("forms.scalar_candidates.yielded", "count"),
        ("corestriction.isotropic_to_generator.busy_s", "s"),
        ("quaternion.validate_disjoint_witness.calls", "count"),
        ("quaternion.validate_disjoint_witness.rejected", "count"),
        ("quaternion.validate_disjoint_witness.accept_ratio", "ratio"),
        ("quaternion.find_disjoint_quadratic_subalgebra.busy_s", "s"),
        ("quaternion.find_disjoint_quadratic_subalgebra.calls", "count"),
        ("quaternion.find_disjoint_quadratic_subalgebra.searched", "count"),
        ("corestriction.TensorSquareAlgebra.busy_s", "s"),
        ("corestriction.albert_form.busy_s", "s"),
        ("harness.Instance.build.busy_s", "s"),
        ("corestriction.cor_is_division.self_s", "s"),
        ("corestriction.generator_to_isotropic.busy_s", "s"),
        ("harness.report_json_bytes.busy_s", "s"),
        ("harness.check_equivalence.self_s", "s"),
        ("harness.verify_certificate.self_s", "s"),
        ("corestriction.build_corestriction.self_s", "s"),
        ("corestriction.CorestrictionAlgebra.express.calls", "count"),
        ("corestriction.CorestrictionAlgebra.express.busy_s", "s"),
        ("corestriction.f_map_check.self_s", "s"),
        ("corestriction.TensorElem.mul.calls", "count"),
        ("corestriction.TensorElem.mul.busy_s", "s"),
        ("linalg._rref.calls", "count"),
        ("linalg._rref.busy_s", "s"),
        ("linalg._rref.funcfield_calls", "count"),
        ("clifford.clifford_iso_check.self_s", "s"),
        ("clifford.rank_fallback.calls", "count"),
        ("clifford.arf_trivial.busy_s", "s"),
    )
    + tuple(("%s.%s" % (prefix, t), "count") for prefix, types_ in FIELD_COUNTS for t in types_)
    + (("trace.overhead_p50_s", "s"),)
)


class SourcesMissing(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def load_albertkit():
    """Import albertkit from ../src, refusing any other copy on the path."""
    if not (SRC / "albertkit" / "__init__.py").is_file():
        raise SourcesMissing("no albertkit sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("albertkit")
    if Path(pkg.__file__).resolve().parent != SRC / "albertkit":
        raise SourcesMissing("imported albertkit from %s, not %s" % (pkg.__file__, SRC))
    # submodules by name: the package attribute `clifford` is a function
    names = ("harness", "corestriction", "clifford")
    return types.SimpleNamespace(**{n: sys.modules["albertkit." + n] for n in names})


def set_up(workload, seed, rounds):
    """What a run does before its first timed item: import albertkit, generate the item list."""
    ak = load_albertkit()
    items = workloads.prepare_items(workload, seed, rounds * workload.round_size, ak.harness.generate_instance)
    return ak, items


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(workload, seed, rounds):
    """CPU seconds of SETUP_PROBES processes that each start and only set up.

    Each probe is this script with --setup-only: interpreter start, the
    benchmark's own imports and set_up, then exit.  Returns (median, all).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--rounds", str(rounds), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        c0 = _children_cpu()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=60)
        times.append(_children_cpu() - c0)
    return stats.median(times), times


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------


def run_pass(ak, workload, items, t_origin):
    """One pass over the item list, item after item; it ends early only at the hard stop."""
    results = []
    for inst, fmap_seed in items:
        if time.perf_counter() - t_origin >= HARD_STOP_S:
            break
        results.append(workloads.run_item(ak, workload, inst, fmap_seed))
    return results


def run_passes(ak, workload, items, seconds, t_origin):
    """Whole passes over the item list until `seconds` have passed, at least one.

    Returns (passes, wall, cpu): one list of results per pass.
    """
    passes = []
    t0 = time.perf_counter()
    c0 = time.process_time()
    while not passes or (time.perf_counter() - t0 < seconds and len(passes[-1]) == len(items)):
        passes.append(run_pass(ak, workload, items, t_origin))
    return passes, time.perf_counter() - t0, time.process_time() - c0


def fastest_runs(passes):
    """Each item's fastest run over the passes, in list order."""
    runs = {}
    for results in passes:
        for idx, r in enumerate(results):
            if idx not in runs or r.seconds < runs[idx].seconds:
                runs[idx] = r
    return [runs[idx] for idx in sorted(runs)]


def _stratum_name(stream):
    return stream.family + (" " + stream.k_kind if stream.k_kind else "")


def _fmt_tail(values):
    tail = stats.tail_percentile(values)
    if tail is None:
        return None, "n/a (n=%d, needs > %d)" % (len(values), stats.TAIL_MIN_BEYOND)
    p, v, beyond = tail
    return v, "%.4f s  (p%d of n=%d, %d beyond)" % (v, p, len(values), beyond)


def untraced_run(ak, workload, items, seconds, t_origin, setup):
    passes, wall, cpu = run_passes(ak, workload, items, seconds, t_origin)
    runs = [r for results in passes for r in results]
    attempted = len(runs)
    failed = [r for r in runs if r.failure is not None]
    results = fastest_runs(passes)
    times = [r.seconds for r in results]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines = []
    lines.append("workload %s: %d items, %d passes (%d item runs) in %.2f s wall, %.2f s cpu" % (
        workload.name, len(results), len(passes), attempted, wall, cpu))
    lines.append("item times below are each item's fastest run over the passes")
    lines.append("setup_s          %.4f s  (cpu of a set-up process, median of %s)" % (
        setup[0], ", ".join("%.4f" % t for t in setup[1])))
    metrics = {"setup_s": setup[0]}
    metrics["items_per_s"] = (attempted - len(failed)) / wall if wall > 0 else 0.0
    lines.append("items_per_s      %.4f 1/s" % metrics["items_per_s"])
    metrics["item_p50_s"] = stats.median(times)
    lines.append("item_p50_s       %.4f s" % metrics["item_p50_s"])
    metrics["strata_p50_s"] = stats.strata_p50(times, workload.slot_strata, [st.weight for st in workload.streams])
    lines.append("strata_p50_s     %.4f s  (weighted geomean of the p50 per %s)" % (
        metrics["strata_p50_s"], "/".join(_stratum_name(st) for st in workload.streams)))
    metrics["item_tail_s"], text = _fmt_tail(times)
    lines.append("item_tail_s      " + text)
    slowest = max(results, key=lambda r: r.seconds)
    lines.append("item_max_s       %.4f s  (%s)" % (slowest.seconds, slowest.item))
    stage_names = ("check", "verify") if workload.pipeline == "certify" else (
        "build_corestriction", "albert_form", "arf_trivial", "f_map_check", "clifford_iso_check")
    for stage in stage_names:
        vals = [r.stages[stage] for r in results if stage in r.stages]
        if not vals:
            continue
        if workload.pipeline == "certify":
            _, text = _fmt_tail(vals)
            lines.append("%-16s %.4f s" % (stage + "_p50_s", stats.median(vals)))
            lines.append("%-16s %s" % (stage + "_tail_s", text))
        else:
            lines.append("%-16s %.4f s  (p50; max %.4f s)" % (stage + "_s", stats.median(vals), max(vals)))
    lines.append("cpu_s            %.4f s  (cpu/wall %.3f)" % (cpu, cpu / wall if wall else 0.0))
    metrics["peak_rss_mb"] = peak_rss_mb
    lines.append("peak_rss_mb      %.1f MB" % peak_rss_mb)
    lines.append("fail_ratio       %d/%d" % (len(failed), attempted))
    if workload.pipeline == "certify":
        lines.append("report_sha256    %s  (over the %d reports of the first pass, informational)" % (
            workloads.report_digest(passes[0]), len(passes[0])))
    for r in failed:
        lines.append("FAILED %s: %s" % (r.item, r.failure))
    return attempted, len(failed), metrics, lines


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def layer_values(tracer):
    """Every per-layer figure the trace yields, by metric name."""
    out = {}
    for name, row in stats.layer_totals(tracer.spans).items():
        if name == "item":
            continue
        out[name + ".calls"] = row["calls"]
        out[name + ".busy_s"] = row["busy_s"]
        out[name + ".self_s"] = row["self_s"]
    out.update(tracer.counters)
    out.update(tracer.field_type_counts())
    for method, n in tracer.verdicts.items():
        out["isotropy.verdict." + method] = n
    out["isotropy.witness_height.max"] = tracer.witness_height
    calls = out.get("quaternion.validate_disjoint_witness.calls", 0)
    rejected = out.get("quaternion.validate_disjoint_witness.rejected", 0)
    out["quaternion.validate_disjoint_witness.accept_ratio"] = (calls - rejected) / calls if calls else 0.0
    return out


def write_spans(tracer, workload, seed):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("spans-%s-seed%d.json.gz" % (workload.name, seed))
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item"], "spans": tracer.spans}, fh)
    return path


# The root span opens just before run_item and closes just after it, so
# its self times exceed the item's own clock by the call overhead (about
# 0.1 ms), or by a garbage collection that falls in between.
SELF_TIME_TOLERANCE_S = 0.02


def self_time_mismatches(root_sums, traced):
    """Why the item roots do not account for the traced items, one line each.

    `root_sums` comes from stats.root_self_sums, one root per traced item
    in run order.  The item seconds are clocked by workloads.run_item,
    independently of the spans.
    """
    if len(root_sums) != len(traced):
        return ["%d item roots for %d traced items" % (len(root_sums), len(traced))]
    out = []
    for (item, _duration, total), r in zip(root_sums, traced):
        if item != r.item or not -1e-9 <= total - r.seconds <= SELF_TIME_TOLERANCE_S:
            out.append("%s: self times under the root %.6f s, traced item %s %.6f s" % (
                item, total, r.item, r.seconds))
    return out


def traced_run(ak, workload, items, t_origin, seed):
    """Per-layer figures, and the tracing overhead on the same items.

    A first untraced pass over the item list warms the interpreter up.
    Then each item runs traced and untraced back to back, the order
    alternating, so that the overhead compares runs in the same warm state
    and machine drift between them stays small.  The item list is fixed,
    so the counters repeat exactly for a seed.
    """
    warm = run_pass(ak, workload, items, t_origin)
    tracer = Tracer()
    traced, plain = [], []

    def run_traced(inst, fmap_seed):
        tracer.install()
        try:
            root = tracer.begin_item(workloads.item_id(inst))
            try:
                traced.append(workloads.run_item(ak, workload, inst, fmap_seed))
            finally:
                tracer.end_item(root)
        finally:
            tracer.uninstall()

    for idx, ((inst, fmap_seed), first) in enumerate(zip(items, warm)):
        # both runs of the item (traced ones take up to ~1.4x) must fit before the hard stop
        if time.perf_counter() - t_origin + 2.5 * first.seconds >= HARD_STOP_S:
            break
        if idx % 2:
            plain.append(workloads.run_item(ak, workload, inst, fmap_seed))
            run_traced(inst, fmap_seed)
        else:
            run_traced(inst, fmap_seed)
            plain.append(workloads.run_item(ak, workload, inst, fmap_seed))
    results = warm + traced + plain
    failed = [r for r in results if r.failure is not None]

    overhead = [t.seconds - u.seconds for t, u in zip(traced, plain)]
    nesting = stats.nesting_errors(tracer.spans)
    mismatched = self_time_mismatches(stats.root_self_sums(tracer.spans), traced)
    values = layer_values(tracer)
    values["trace.overhead_p50_s"] = stats.median(overhead) if overhead else 0.0

    lines = ["workload %s (traced): %d items warmed up, then run traced and untraced, %d spans" % (
        workload.name, len(traced), len(tracer.spans))]
    if overhead:
        t_sum = sum(t.seconds for t in traced)
        u_sum = sum(u.seconds for u in plain)
        lines.append("tracing overhead: %.4f s per item (p50 of traced - untraced), %.4f s over %d items (%.1f%%)" % (
            values["trace.overhead_p50_s"], t_sum - u_sum, len(plain), 100.0 * (t_sum - u_sum) / u_sum if u_sum else 0.0))
    lines.append("self-time check: %d of %d traced items match the self times under their root "
                 "(within %.3f s); %d spans break nesting" % (
                     len(traced) - len(mismatched), len(traced), SELF_TIME_TOLERANCE_S, len(nesting)))
    for name in sorted(values):
        lines.append("  %-60s %s" % (name, values[name]))
    lines.append("spans written to %s" % write_spans(tracer, workload, seed).relative_to(ROOT))
    for r in failed:
        lines.append("FAILED %s: %s" % (r.item, r.failure))
    for reason in mismatched:
        lines.append("SELF-TIME MISMATCH " + reason)
    for idx, reason in nesting[:20]:
        span = tracer.spans[idx]
        lines.append("NESTING %s span %d %s: %s" % (span[stats.ITEM], idx, span[stats.NAME], reason))
    failures = len(failed) + len(mismatched) + (1 if nesting else 0)
    return len(results), failures, values, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    t_origin = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, help="rounds in the item list (default: the workload's own)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    rounds = args.rounds or workload.rounds
    try:
        ak, items = set_up(workload, args.seed, rounds)
    except (SourcesMissing, ImportError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    if args.trace:
        attempted, failed, values, lines = traced_run(ak, workload, items, t_origin, args.seed)
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    else:
        setup = measure_setup(workload, args.seed, rounds)
        attempted, failed, values, lines = untraced_run(ak, workload, items, args.seconds, t_origin, setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print("\n".join(lines), flush=True)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
