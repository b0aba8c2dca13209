"""Metrics registry: counters, gauges and fixed-bucket histograms.

Naming convention (see ``docs/observability.md``): dot-separated lowercase
paths, ``<subsystem>.<noun>``; monotonically increasing counts end in
``_total`` (``graphs_built_total``, ``cache.merged_inputs.hits_total``).
Low-cardinality dimensions go in ``labels``
(``ensemble.range_selected{max_v=1e-15}``), never in the metric name.

All mutation is lock-protected, so metrics can be bumped from worker
threads; ``snapshot`` builds its rows under the same lock, so no row is
half-updated.  The lock is a leaf: nothing else is taken while it is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import forksafe

#: Default histogram bucket upper bounds (seconds-flavoured but generic).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, math.inf
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


@dataclass
class Gauge:
    """Last-write-wins instantaneous value."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Fixed-bucket histogram with sum/count/min/max."""

    name: str
    labels: dict = field(default_factory=dict)
    buckets: tuple = DEFAULT_BUCKETS
    counts: list = None
    total: float = 0.0
    count: int = 0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self):
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be ascending")
        if self.counts is None:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += value
        self.count += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1  # +inf backstop when no bound matched

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (q in [0, 1]).

        Resolution is limited by the bucket bounds: the estimate
        interpolates linearly within the bucket holding the q-th
        observation and is clamped to the observed min/max.  NaN when
        empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self.count:
            return math.nan
        rank = q * self.count
        seen = 0
        previous_bound = None
        for bound, bucket_count in zip(self.buckets, self.counts):
            if bucket_count and seen + bucket_count >= rank:
                lower = (
                    self.min if previous_bound is None else previous_bound
                )
                fraction = (rank - seen) / bucket_count
                if not math.isfinite(bound):
                    # +inf backstop: interpolate toward the observed max
                    # instead of snapping to it (so q=0 with everything in
                    # the overflow bucket still reports the observed min).
                    lower = max(self.min, lower)
                    estimate = lower + fraction * (self.max - lower)
                else:
                    estimate = lower + fraction * (bound - lower)
                return min(self.max, max(self.min, estimate))
            seen += bucket_count
            previous_bound = bound
        return self.max  # pragma: no cover - rank beyond counted items

    def row(self) -> dict:
        """The summary fields of this histogram's JSON row: ``count``,
        ``sum``, ``mean``, ``min``, ``max``, ``p50``, ``p95``, ``p99``
        (None where empty) and ``buckets`` (an infinite bound as None).

        A registry snapshot, a worker metrics file and the fleet merge
        all summarise a histogram here.
        """
        empty = not self.count
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "p50": None if empty else self.quantile(0.50),
            "p95": None if empty else self.quantile(0.95),
            "p99": None if empty else self.quantile(0.99),
            "buckets": [
                [bound if math.isfinite(bound) else None, count]
                for bound, count in zip(self.buckets, self.counts)
            ],
        }


class MetricsRegistry:
    """Create-on-first-use store of named metrics."""

    def __init__(self) -> None:
        self._lock = forksafe.Lock()
        self._metrics: dict[tuple, object] = {}

    def _get(self, kind, name: str, labels: dict | None, **kwargs):
        key = (kind.__name__, name, _label_key(labels or {}))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = kind(name=name, labels=dict(labels or {}), **kwargs)
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=tuple(buckets))

    # ------------------------------------------------------------------
    def inc(self, name: str, n: float = 1.0, **labels) -> None:
        counter = self.counter(name, **labels)
        with self._lock:
            counter.inc(n)

    def set(self, name: str, value: float, **labels) -> None:
        gauge = self.gauge(name, **labels)
        with self._lock:
            gauge.set(value)

    def observe(
        self, name: str, value: float, buckets: tuple = DEFAULT_BUCKETS, **labels
    ) -> None:
        histogram = self.histogram(name, buckets=buckets, **labels)
        with self._lock:
            histogram.observe(value)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self._metrics = {}

    def snapshot(self) -> list[dict]:
        """JSON-ready rows, one per metric, sorted by name.

        The rows are built under the registry lock, so each one is a
        consistent state: a histogram's buckets sum to its ``count``.
        """
        rows = []
        with self._lock:
            for metric in self._metrics.values():
                row = {
                    "type": "metric",
                    "kind": type(metric).__name__.lower(),
                    "name": metric.name,
                    "labels": metric.labels,
                }
                if isinstance(metric, Histogram):
                    row.update(metric.row())
                else:
                    row["value"] = metric.value
                rows.append(row)
        rows.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        return rows
