"""Summary statistics and span arithmetic for the benchmark.

Pure functions over plain lists: no albertkit import, no clock reads.
"""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else None


def tail_percentile(values, min_beyond=TAIL_MIN_BEYOND):
    """The highest whole percentile with at least `min_beyond` samples beyond it.

    Uses the nearest-rank definition: percentile p of n sorted samples is
    the sample at rank ceil(p * n / 100), and the samples beyond it are the
    n - rank samples ranked above it.  Returns (p, value, beyond), or None
    when there are too few samples for any percentile to qualify.
    """
    n = len(values)
    if n <= min_beyond:
        return None
    ordered = sorted(values)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= min_beyond:
            return p, ordered[rank - 1], n - rank
    return None


def strata_p50(values, slot_strata, weights):
    """Weighted geometric mean, over strata, of the median value in each stratum.

    `values` are per-item values in run order, `slot_strata[i % len(slot_strata)]`
    is the stratum of the i-th item, and `weights[k]` is stratum k's weight.
    Strata with no item are left out.  A plain median over a mix of strata
    whose costs differ lands between them and jumps with the share of each
    stratum that a run happens to reach; the median within a stratum does not.
    """
    groups = {}
    for idx, v in enumerate(values):
        groups.setdefault(slot_strata[idx % len(slot_strata)], []).append(v)
    total = sum(weights[k] for k in groups)
    return math.exp(sum(weights[k] * math.log(statistics.median(vs)) for k, vs in groups.items()) / total)


def quartile_spread(values):
    """(q3 - q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
#
# A span is a list [name, start, end, parent, item]: parent is the index of
# the enclosing span in the same list (or -1), item the "family:seed" id.
# Spans are listed in the order they began.  When they nest (see
# nesting_errors), a span's children never overlap, and the part of it
# they cover is the sum of their durations.

NAME, START, END, PARENT, ITEM = range(5)


def self_times(spans):
    """Per-span self time: duration minus the summed durations of its children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_totals(spans):
    """name -> {"calls", "busy_s", "self_s"}.

    busy_s sums the spans of a name that have no ancestor of the same name,
    so recursion is not counted twice; self_s sums every span's self time.
    """
    selfs = self_times(spans)
    out = {}
    for idx, s in enumerate(spans):
        name = s[NAME]
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[idx]
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["busy_s"] += s[END] - s[START]
    return out


def root_self_sums(spans):
    """For each root span: (item, duration, sum of self times in its subtree)."""
    selfs = self_times(spans)
    root_of = [-1] * len(spans)
    sums = {}
    for idx, s in enumerate(spans):
        root = idx if s[PARENT] < 0 else root_of[s[PARENT]]
        root_of[idx] = root
        sums[root] = sums.get(root, 0.0) + selfs[idx]
    return [
        (spans[r][ITEM], spans[r][END] - spans[r][START], total)
        for r, total in sorted(sums.items())
    ]


def nesting_errors(spans):
    """(index, reason) for each span that breaks the nesting self time relies on.

    A span must have ended, lie within its parent, belong to its parent's
    item, and start no earlier than the end of the siblings before it.
    """
    errors = []
    siblings_end = {}  # parent index (-1 for roots) -> latest end of its children so far
    for idx, s in enumerate(spans):
        parent = s[PARENT]
        if s[END] < s[START]:
            errors.append((idx, "ends before it starts, or never ended"))
        if parent >= idx:
            errors.append((idx, "parent %d is not an earlier span" % parent))
        elif parent >= 0:
            p = spans[parent]
            if s[START] < p[START] or s[END] > p[END]:
                errors.append((idx, "runs outside its parent %d" % parent))
            if s[ITEM] != p[ITEM]:
                errors.append((idx, "item %s, its parent's is %s" % (s[ITEM], p[ITEM])))
        if s[START] < siblings_end.get(parent, s[START]):
            errors.append((idx, "overlaps an earlier sibling"))
        siblings_end[parent] = max(siblings_end.get(parent, s[END]), s[END])
    return errors
