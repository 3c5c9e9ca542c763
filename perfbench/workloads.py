"""Workload definitions: instance streams, item pipelines and the correctness gate.

Every item is one generated instance pushed through its workload's
pipeline.  Each family draws its instance seeds from a fixed pool
(POOLS); the workload seed picks where in the pool its window starts, and
the stream runs on from there, wrapping around.  Seed 0 starts at instance
seed 0, so its first items are the acceptance batch of
tests/test_acceptance.py.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# instance seeds per family in the acceptance batch; a seed's window is this wide
ACCEPTANCE_COUNTS = {
    "split-K-over-Q": 50,
    "quad-K-over-Q": 50,
    "split-K-over-Qt": 40,
    "char2-finite": 40,
    "char2-function-field": 20,
}

# Instance seeds 0 .. n-1 of each family, every one of which was run to
# completion.  Seeds past a pool are not drawn: split-K-over-Q:260 runs for
# minutes in the witness search, longer than a benchmark run may take
# (see perfbench/README.md).  The known slow seeds stay in.
POOLS = {
    "split-K-over-Q": 120,
    "quad-K-over-Q": 80,
    "split-K-over-Qt": 60,
    "char2-finite": 80,
    "char2-function-field": 60,
}


@dataclass(frozen=True)
class Stream:
    """One strand of a workload: a family, optionally restricted to a K kind."""

    family: str
    weight: int  # items of this strand per round
    k_kind: str | None = None  # "split" or "field"; None takes every seed


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "certify" or "audit"
    streams: tuple
    rounds: int  # rounds in a run's item list; fixed, so a seed's list never changes

    @property
    def round_size(self):
        return sum(st.weight for st in self.streams)

    @property
    def slot_strata(self):
        """The stream index of each position in a round."""
        return tuple(k for k, st in enumerate(self.streams) for _ in range(st.weight))


# Weights 1:1 and 2:2:1 make the first round-robin items of seed 0 exactly
# the acceptance batch of those families (50 + 50 and 40 + 40 + 20).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-rational",
            "certify",
            (Stream("split-K-over-Q", 1), Stream("quad-K-over-Q", 1)),
            rounds=8,
        ),
        Workload(
            "certify-function-field",
            "certify",
            (
                Stream("split-K-over-Qt", 2),
                Stream("char2-finite", 2),
                Stream("char2-function-field", 1),
            ),
            # on the seeds 2, 5, 8, ... the list holds char2-function-field:42,
            # and with it the char-2 candidate stream
            rounds=4,
        ),
        # the six instance kinds of acceptance criteria 5 and 6: split and
        # field K, in characteristic 0 and 2, one of each per round
        Workload(
            "cor-audit",
            "audit",
            (
                Stream("split-K-over-Q", 1),
                Stream("quad-K-over-Q", 1),
                Stream("split-K-over-Qt", 1),
                Stream("char2-finite", 1),
                Stream("char2-function-field", 1, "split"),
                Stream("char2-function-field", 1, "field"),
            ),
            rounds=1,
        ),
    )
}


def _strand(stream, seed, generate_instance):
    """Instances of one strand, from the seed's window on, cycling through the pool."""
    pool = POOLS[stream.family]
    start = seed * ACCEPTANCE_COUNTS[stream.family]
    for k in itertools.count():
        inst = generate_instance(stream.family, (start + k) % pool)
        if stream.k_kind is not None:
            kind = "split" if inst.k_spec == "split" else "field"
            if kind != stream.k_kind:
                continue
        yield inst


def instance_stream(workload, seed, generate_instance):
    """Endless deterministic item stream: weighted round robin over the strands."""
    strands = [_strand(st, seed, generate_instance) for st in workload.streams]
    while True:
        for st, strand in zip(workload.streams, strands):
            for _ in range(st.weight):
                yield next(strand)


def item_id(inst):
    return "%s:%d" % (inst.family, inst.seed)


def prepare_items(workload, seed, count, generate_instance):
    """The first `count` items of the seed's stream: (instance, f_map_check seed)."""
    insts = list(itertools.islice(instance_stream(workload, seed, generate_instance), count))
    rng = random.Random(seed)
    return [(inst, rng.randint(0, 10**6)) for inst in insts]


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


@dataclass
class ItemResult:
    item: str
    seconds: float
    stages: dict  # stage name -> seconds
    failure: str | None = None
    report_bytes: bytes = b""


def _raised(exc):
    """Failure text for an exception: type, message and where it was raised."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return "raised %s: %s (%s:%d in %s)" % (
        type(exc).__name__, exc, Path(frame.filename).name, frame.lineno, frame.name)


def gate_report(rep, verified):
    """The reason a certify item fails, or None when it passes."""
    conds = (rep.cond_i, rep.cond_ii, rep.cond_iii_not_division)
    statuses = {c.status for c in conds}
    if not rep.consistent:
        return "report is not consistent"
    if "unknown" in statuses:
        return "a condition is unknown"
    if len(statuses) != 1:
        return "conditions (i), (ii), (iii) disagree: %s" % sorted(statuses)
    if not verified:
        return "certificate rejected"
    return None


def gate_audit(arf, fmap, iso):
    """The reason an audit item fails, or None when it passes."""
    trivial, cert = arf
    if iso.get("rank") != 64:
        return "Clifford image rank %s != 64" % iso.get("rank")
    if fmap.get("basis_checked") != 6 or fmap.get("random_checked") != 100:
        return "f_map_check covered %s/%s" % (fmap.get("basis_checked"), fmap.get("random_checked"))
    if not (trivial and cert.get("center_split")):
        return "Arf invariant is not trivial with split center"
    return None


def run_certify(ak, inst):
    """check_equivalence -> report_json_bytes -> verify_certificate(json.loads(bytes))."""
    harness = ak.harness
    clock = time.perf_counter
    stages = {}
    t0 = clock()
    try:
        rep = harness.check_equivalence(inst)
        t1 = clock()
        data = harness.report_json_bytes(rep)
        t2 = clock()
        doc = json.loads(data)
        t3 = clock()
        verified = harness.verify_certificate(doc)
        t4 = clock()
    except Exception as exc:  # an item that raises is a failed item, not a crash
        return ItemResult(item_id(inst), clock() - t0, stages, _raised(exc))
    stages.update(check=t1 - t0, report=t2 - t1, verify=t4 - t3)
    return ItemResult(item_id(inst), t4 - t0, stages, gate_report(rep, verified), data)


def run_audit(ak, inst, fmap_seed):
    """build_corestriction, albert_form, arf_trivial, f_map_check, clifford_iso_check."""
    cs = ak.corestriction
    clock = time.perf_counter
    stages = {}
    t0 = clock()
    try:
        _F, ext, Q = inst.build()
        t1 = clock()
        cor = cs.build_corestriction(ext, Q)
        t2 = clock()
        ad = cs.albert_form(ext, Q)
        t3 = clock()
        arf = ak.clifford.arf_trivial(ad.form)
        t4 = clock()
        fmap = cs.f_map_check(ad, cor, n_random=100, seed=fmap_seed)
        t5 = clock()
        iso = ak.clifford.clifford_iso_check(ad, cor)
        t6 = clock()
    except Exception as exc:  # an item that raises is a failed item, not a crash
        return ItemResult(item_id(inst), clock() - t0, stages, _raised(exc))
    stages.update(
        build_corestriction=t2 - t1,
        albert_form=t3 - t2,
        arf_trivial=t4 - t3,
        f_map_check=t5 - t4,
        clifford_iso_check=t6 - t5,
    )
    return ItemResult(item_id(inst), t6 - t0, stages, gate_audit(arf, fmap, iso))


def run_item(ak, workload, inst, fmap_seed):
    if workload.pipeline == "certify":
        return run_certify(ak, inst)
    return run_audit(ak, inst, fmap_seed)


def report_digest(results):
    """sha256 over the concatenated report bytes of the items, in run order."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.report_bytes)
    return h.hexdigest()
