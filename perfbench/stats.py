"""Order statistics and span arithmetic shared by every workload.

Pure Python on plain tuples, so the self-tests exercise exactly the code
that produces the reported numbers.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Span tuple layout: (id, parent_id, name, request_id, start, end, extra).
SPAN_ID, SPAN_PARENT, SPAN_NAME, SPAN_RID, SPAN_T0, SPAN_T1, SPAN_EXTRA = range(7)


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile *q* (0..100) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly above the *q*-th percentile rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0) if n else 0


def highest_tail(n: int, ladder: Iterable[float] = TAIL_LADDER) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    for q in ladder:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[tuple]) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    Children may run on other threads (executor work linked to the HTTP
    handler that waits for it) and may overlap each other; the covered
    part is the union of their intervals, so a parent's self time is never
    negative and never counts the same instant twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[SPAN_PARENT] is not None:
            children[span[SPAN_PARENT]].append((span[SPAN_T0], span[SPAN_T1]))
    out = []
    for span in spans:
        t0, t1 = span[SPAN_T0], span[SPAN_T1]
        covered = union_length(children.get(span[SPAN_ID], ()), t0, t1)
        out.append(max(0.0, (t1 - t0) - covered))
    return out


def root_names(spans: Sequence[tuple]) -> list[str]:
    """Name of the outermost ancestor of every span (itself when a root)."""
    by_id = {span[SPAN_ID]: span for span in spans}
    memo: dict[int, str] = {}

    def root(span) -> str:
        sid = span[SPAN_ID]
        if sid in memo:
            return memo[sid]
        parent = by_id.get(span[SPAN_PARENT])
        name = span[SPAN_NAME] if parent is None else root(parent)
        memo[sid] = name
        return name

    return [root(span) for span in spans]


def self_time_by_name(spans: Sequence[tuple]) -> dict[str, float]:
    """Total self seconds per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[SPAN_NAME]] += own
    return dict(totals)

