#!/usr/bin/env python3
"""The 200-instance acceptance batch through the certify pipeline, per family.

    python3 perfbench/batch.py [--out FILE]

The first 100 items of seed 0 of certify-rational and of
certify-function-field are exactly the batch of tests/test_acceptance.py.
Prints check and verify totals, p50 and max per family, in the layout of
the baseline table in ROADMAP.md, for a cross-check against it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
from record import machine_facts  # noqa: E402
import workloads  # noqa: E402

BATCH_ITEMS = 100  # per certify workload


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    ak = run.load_albertkit()
    rows = []
    for name in ("certify-rational", "certify-function-field"):
        wl = workloads.WORKLOADS[name]
        items = workloads.prepare_items(wl, workloads.DEFAULT_SEED, BATCH_ITEMS, ak.harness.generate_instance)
        for inst, _ in items:
            r = workloads.run_certify(ak, inst)
            rows.append({"item": r.item, "family": inst.family, "failure": r.failure, **r.stages})
            print("%-26s check %8.3f s  verify %7.3f s%s" % (
                r.item, r.stages.get("check", 0.0), r.stages.get("verify", 0.0),
                "  FAILED: " + r.failure if r.failure else ""), flush=True)
    print("\n%-22s %4s %12s %10s %24s %13s" % ("family", "n", "check total", "check p50", "check max", "verify total"))
    families = {}
    for row in rows:
        families.setdefault(row["family"], []).append(row)
    table = {}
    for family, fam_rows in families.items():
        checks = [r["check"] for r in fam_rows]
        slowest = max(fam_rows, key=lambda r: r["check"])
        table[family] = {
            "n": len(fam_rows),
            "check_total_s": sum(checks),
            "check_p50_s": stats.median(checks),
            "check_max_s": slowest["check"],
            "check_max_item": slowest["item"],
            "verify_total_s": sum(r["verify"] for r in fam_rows),
        }
        t = table[family]
        print("%-22s %4d %10.1f s %8.3f s %8.1f s %-15s %9.1f s" % (
            family, t["n"], t["check_total_s"], t["check_p50_s"], t["check_max_s"], "(" + slowest["item"].split(":")[1] + ")", t["verify_total_s"]))
    check_total = sum(t["check_total_s"] for t in table.values())
    verify_total = sum(t["verify_total_s"] for t in table.values())
    failed = sum(1 for r in rows if r["failure"])
    print("all families: check %.1f s, verify %.1f s, %d of %d items failed" % (check_total, verify_total, failed, len(rows)))
    if args.out:
        doc = {"machine": machine_facts(), "families": table,
               "check_total_s": check_total, "verify_total_s": verify_total, "failed": failed, "items": rows}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
