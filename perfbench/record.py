#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds, each run in a fresh process.

    python3 perfbench/record.py --seeds 0-9 --seconds 30 --out perfbench/baseline/set1.json
    python3 perfbench/record.py --workloads cor-audit --seeds 0-4 --trace 1

Prints every run's output, then per workload and metric the median over
the seeds and the quartile spread (q3 - q1) / median, with the quartiles
of statistics.quantiles(n=4).  --out also saves the runs with the facts of
the machine (nproc, Python version, load average at the start).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "elapsed_s": elapsed, "output": lines[:-1] if result else lines,
            "stderr": proc.stderr[-2000:], "result": result}


# the item timings a run prints but does not put in its JSON line
PRINTED = re.compile(r"^(strata_p50_s|item_p50_s|items_per_s|check_p50_s|verify_p50_s) +([0-9.]+) ")


def summarize(runs):
    """workload -> metric -> {"median", "spread", "values"} over the runs.

    Covers the metrics of each run's JSON line and the item timings it prints.
    """
    out = {}
    for run in runs:
        if not run["result"]:
            continue
        values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
        for line in run["output"]:
            match = PRINTED.match(line)
            if match:
                values[match.group(1)] = float(match.group(2))
        for name, value in values.items():
            out.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    table = {}
    for workload, metrics in out.items():
        for name, values in metrics.items():
            values = [v for v in values if v is not None]
            row = {"values": values, "median": stats.median(values)}
            if len(values) >= 2:
                row["spread"] = stats.quartile_spread(values)
            table.setdefault(workload, {})[name] = row
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    facts = machine_facts()
    print("machine: %s" % json.dumps(facts), flush=True)
    runs = []
    for name in names:
        for seed in parse_seeds(args.seeds):
            run = run_once(name, seed, args.seconds, args.trace)
            runs.append(run)
            print("== %s seed %d: exit %d, %.1f s" % (name, seed, run["exit"], run["elapsed_s"]), flush=True)
            print("\n".join(run["output"]), flush=True)
            if run["result"] is None:
                print(run["stderr"], flush=True)
            else:
                print(json.dumps(run["result"]), flush=True)
    table = summarize(runs)
    print("\nsummary (median over seeds; spread = (q3 - q1) / median)")
    for workload, metrics in table.items():
        for name, row in metrics.items():
            print("  %-24s %-40s median %-12.6g spread %s" % (
                workload, name, row["median"], "%.3f" % row["spread"] if "spread" in row else "n/a"))
    if args.out:
        doc = {"machine": facts, "seconds": args.seconds, "trace": args.trace, "runs": runs, "summary": table}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["result"] and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
