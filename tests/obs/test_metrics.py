"""Metrics registry: counters, gauges, histograms, labels, snapshots."""

import math
import sys
import threading
import time

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates(self, reg):
        reg.inc("graphs_built_total")
        reg.inc("graphs_built_total", 4)
        assert reg.counter("graphs_built_total").value == 5

    def test_negative_increment_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.inc("graphs_built_total", -1)

    def test_labels_create_separate_series(self, reg):
        reg.inc("ensemble.range_selected", 2, max_v="1e-15")
        reg.inc("ensemble.range_selected", 3, max_v="inf")
        assert reg.counter("ensemble.range_selected", max_v="1e-15").value == 2
        assert reg.counter("ensemble.range_selected", max_v="inf").value == 3

    def test_thread_safe_increments(self, reg):
        def bump():
            for _ in range(1000):
                reg.inc("contended_total")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("contended_total").value == 4000


class TestGauge:
    def test_last_write_wins(self, reg):
        reg.set("train.loss", 0.5, target="CAP")
        reg.set("train.loss", 0.25, target="CAP")
        assert reg.gauge("train.loss", target="CAP").value == 0.25


class TestHistogram:
    def test_bucket_assignment(self, reg):
        buckets = (1.0, 10.0, math.inf)
        for v in (0.5, 5.0, 50.0, 500.0):
            reg.observe("train.epoch_seconds", v, buckets=buckets)
        hist = reg.histogram("train.epoch_seconds", buckets=buckets)
        assert hist.counts == [1, 1, 2]
        assert hist.count == 4
        assert hist.min == 0.5 and hist.max == 500.0
        assert hist.mean == pytest.approx(138.875)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(name="bad", buckets=(2.0, 1.0))

    def test_empty_histogram_mean_is_nan(self, reg):
        assert math.isnan(reg.histogram("unused").mean)


class TestQuantiles:
    def test_quantiles_interpolate_within_buckets(self, reg):
        buckets = (1.0, 2.0, 4.0, 8.0, math.inf)
        for v in [0.5, 1.5, 1.6, 1.7, 3.0, 3.5, 5.0, 6.0, 7.0, 7.5]:
            reg.observe("latency", v, buckets=buckets)
        hist = reg.histogram("latency", buckets=buckets)
        assert hist.quantile(0.0) == 0.5
        assert hist.quantile(1.0) == 7.5
        # the median falls in the (2, 4] bucket
        assert 2.0 <= hist.quantile(0.5) <= 4.0
        # high quantiles land in the (4, 8] bucket
        assert 4.0 <= hist.quantile(0.95) <= 7.5

    def test_quantiles_clamped_to_observed_range(self, reg):
        buckets = (10.0, 100.0, math.inf)
        for v in (5.0, 6.0, 7.0):
            reg.observe("latency", v, buckets=buckets)
        hist = reg.histogram("latency", buckets=buckets)
        assert 5.0 <= hist.quantile(0.5) <= 7.0

    def test_backstop_bucket_interpolates_toward_observed_max(self, reg):
        buckets = (1.0, math.inf)
        reg.observe("latency", 0.5, buckets=buckets)
        reg.observe("latency", 123.0, buckets=buckets)
        hist = reg.histogram("latency", buckets=buckets)
        # the q=0.99 rank lands in the +inf backstop: interpolated between
        # the last finite bound and the observed max, never beyond it
        assert 1.0 <= hist.quantile(0.99) <= 123.0
        assert hist.quantile(1.0) == 123.0

    def test_all_in_backstop_bucket_clamped_to_observed_range(self, reg):
        # every observation beyond the last finite bound: quantiles must
        # stay within [observed min, observed max], and q=0 reports min
        buckets = (1.0, math.inf)
        for v in (450.0, 500.0, 550.0):
            reg.observe("latency", v, buckets=buckets)
        hist = reg.histogram("latency", buckets=buckets)
        assert hist.quantile(0.0) == 450.0
        assert hist.quantile(1.0) == 550.0
        assert 450.0 <= hist.quantile(0.5) <= 550.0

    def test_single_observation_every_quantile_is_it(self, reg):
        reg.observe("latency", 5.0, buckets=(1.0, 10.0, math.inf))
        hist = reg.histogram("latency", buckets=(1.0, 10.0, math.inf))
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert hist.quantile(q) == 5.0

    def test_single_observation_in_backstop_is_it(self, reg):
        reg.observe("latency", 77.0, buckets=(1.0, math.inf))
        hist = reg.histogram("latency", buckets=(1.0, math.inf))
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) == 77.0

    def test_empty_histogram_quantile_is_nan(self, reg):
        assert math.isnan(reg.histogram("unused").quantile(0.5))

    def test_out_of_range_quantile_rejected(self, reg):
        reg.observe("latency", 1.0)
        with pytest.raises(ValueError):
            reg.histogram("latency").quantile(1.5)

    def test_snapshot_rows_carry_percentiles(self, reg):
        for v in range(1, 101):
            reg.observe("latency", v / 100.0)
        (row,) = reg.snapshot()
        assert row["p50"] <= row["p95"] <= row["p99"] <= row["max"]
        assert row["p50"] == pytest.approx(0.5, abs=0.2)

    def test_empty_snapshot_percentiles_are_none(self, reg):
        reg.histogram("unused")
        (row,) = reg.snapshot()
        assert row["p50"] is None and row["p95"] is None and row["p99"] is None


class TestSnapshot:
    def test_rows_are_json_ready_and_sorted(self, reg):
        reg.inc("b_total")
        reg.set("a_gauge", 1.5)
        reg.observe("c_hist", 2.0)
        rows = reg.snapshot()
        assert [r["name"] for r in rows] == ["a_gauge", "b_total", "c_hist"]
        assert all(r["type"] == "metric" for r in rows)
        kinds = {r["name"]: r["kind"] for r in rows}
        assert kinds == {"a_gauge": "gauge", "b_total": "counter", "c_hist": "histogram"}
        hist = rows[2]
        assert hist["count"] == 1 and hist["sum"] == 2.0
        # inf bound is serialized as None so the row is valid strict JSON
        assert hist["buckets"][-1][0] is None

    def test_reset_clears(self, reg):
        reg.inc("gone_total")
        reg.reset()
        assert reg.snapshot() == []

    def test_histogram_rows_are_consistent_under_contention(self, reg):
        """Two threads observe while a third snapshots: every histogram row
        must be one state, its buckets summing to its count (the exposition
        check rejects a row whose +Inf bucket differs from ``_count``)."""
        done = threading.Event()
        torn, rows_seen = [], [0]

        def observe():
            while not done.is_set():
                reg.observe("latency_seconds", 0.002)
                reg.observe("latency_seconds", 0.2)

        def snapshot():
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                for row in reg.snapshot():
                    rows_seen[0] += 1
                    if sum(n for _, n in row["buckets"]) != row["count"]:
                        torn.append(row)
            done.set()

        threads = [threading.Thread(target=observe) for _ in range(2)]
        threads.append(threading.Thread(target=snapshot))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert rows_seen[0] > 0
        assert torn == []
