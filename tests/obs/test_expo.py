"""Prometheus exposition: name mangling, rendering, and the strict parser."""

import math

import pytest

from repro.errors import ObsError
from repro.obs.expo import (
    CONTENT_TYPE,
    escape_label_value,
    format_value,
    mangle_name,
    render_fleet,
    render_registry_rows,
    validate_exposition,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.mpmetrics import MetricsFileWriter, load_snapshots


class TestNames:
    def test_dot_paths_are_mangled_with_namespace(self):
        assert mangle_name("serve.requests_total") == "repro_serve_requests_total"
        assert mangle_name("graph-cache.hits") == "repro_graph_cache_hits"

    def test_no_namespace_leading_digit_prefixed(self):
        assert mangle_name("9lives", namespace="") == "_9lives"

    def test_label_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_value_formatting(self):
        assert format_value(5.0) == "5"
        assert format_value(0.25) == "0.25"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(math.nan) == "NaN"


class TestRenderRegistry:
    def make_rows(self):
        registry = MetricsRegistry()
        registry.inc("serve.requests_total", 3, route="/predict")
        registry.set("serve.queue_depth", 2.0)
        for v in (0.1, 0.7, 3.0):
            registry.observe(
                "serve.request_seconds", v, buckets=(0.5, 1.0, math.inf)
            )
        return registry.snapshot()

    def test_render_is_valid_and_complete(self):
        text = render_registry_rows(self.make_rows())
        families, series = validate_exposition(text)
        assert families == {
            "repro_serve_requests_total": "counter",
            "repro_serve_queue_depth": "gauge",
            "repro_serve_request_seconds": "histogram",
        }
        assert series[
            ("repro_serve_requests_total", (("route", "/predict"),))
        ] == 3.0
        assert series[("repro_serve_queue_depth", ())] == 2.0

    def test_histogram_buckets_are_cumulative(self):
        text = render_registry_rows(self.make_rows())
        _, series = validate_exposition(text)
        bucket = lambda le: series[
            ("repro_serve_request_seconds_bucket", (("le", le),))
        ]
        assert bucket("0.5") == 1.0
        assert bucket("1") == 2.0
        assert bucket("+Inf") == 3.0
        assert series[("repro_serve_request_seconds_count", ())] == 3.0
        assert series[("repro_serve_request_seconds_sum", ())] == pytest.approx(3.8)

    def test_counter_gains_total_suffix(self):
        registry = MetricsRegistry()
        registry.inc("serve.hits")
        text = render_registry_rows(registry.snapshot())
        assert "repro_serve_hits_total 1" in text

    def test_worker_label_applied(self):
        registry = MetricsRegistry()
        registry.inc("hits_total")
        text = render_registry_rows(registry.snapshot(), worker=2)
        _, series = validate_exposition(text)
        assert series[("repro_hits_total", (("worker", "2"),))] == 1.0

    def test_nan_gauge_skipped(self):
        rows = [
            {"type": "metric", "kind": "gauge", "name": "g",
             "labels": {}, "value": math.nan},
        ]
        text = render_registry_rows(rows)
        assert "NaN" not in text

    def test_kind_conflict_raises(self):
        rows = [
            {"type": "metric", "kind": "gauge", "name": "x_total",
             "labels": {}, "value": 1.0},
            {"type": "metric", "kind": "counter", "name": "x",
             "labels": {}, "value": 1.0},
        ]
        with pytest.raises(ObsError):
            render_registry_rows(rows)

    def test_content_type_pins_version(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestRenderFleet:
    def make_snapshots(self, tmp_path):
        for worker in range(2):
            registry = MetricsRegistry()
            writer = MetricsFileWriter(
                tmp_path, worker=worker, generation=1,
                pid=10_000_000 + worker,
            )
            registry.attach_mirror(writer)
            registry.inc("serve.requests_total", worker + 1)
            registry.set("proc.rss_kb", 100.0 * (worker + 1))
            registry.observe(
                "serve.request_seconds", 0.2, buckets=(0.5, math.inf)
            )
            writer.close()
        return load_snapshots(tmp_path, live_only=False)

    def test_fleet_counters_merge_gauges_stay_per_worker(self, tmp_path):
        text = render_fleet(self.make_snapshots(tmp_path))
        families, series = validate_exposition(text)
        # counters merged: no worker label, fleet sum
        assert series[("repro_serve_requests_total", ())] == 3.0
        # gauges per worker
        assert series[("repro_proc_rss_kb", (("worker", "0"),))] == 100.0
        assert series[("repro_proc_rss_kb", (("worker", "1"),))] == 200.0
        assert families["repro_worker_up"] == "gauge"

    def test_worker_up_series_carry_identity(self, tmp_path):
        text = render_fleet(self.make_snapshots(tmp_path))
        _, series = validate_exposition(text)
        up = {
            key: value for key, value in series.items()
            if key[0] == "repro_worker_up"
        }
        assert len(up) == 2
        for (_, labels), value in up.items():
            label_map = dict(labels)
            assert set(label_map) == {"worker", "pid", "generation"}
            assert label_map["generation"] == "1"
            assert value == 0.0  # fake pids are dead

    def test_merged_histogram_count_matches(self, tmp_path):
        text = render_fleet(self.make_snapshots(tmp_path))
        _, series = validate_exposition(text)
        assert series[("repro_serve_request_seconds_count", ())] == 2.0


class TestStrictParser:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ObsError, match="no preceding # TYPE"):
            validate_exposition("orphan 1\n")

    def test_rejects_duplicate_type(self):
        text = "# TYPE a counter\n# TYPE a counter\n"
        with pytest.raises(ObsError, match="declared twice"):
            validate_exposition(text)

    def test_rejects_unknown_type(self):
        with pytest.raises(ObsError, match="unknown metric type"):
            validate_exposition("# TYPE a exotic\n")

    def test_rejects_duplicate_series(self):
        text = "# TYPE a counter\na 1\na 2\n"
        with pytest.raises(ObsError, match="duplicate series"):
            validate_exposition(text)

    def test_rejects_malformed_labels(self):
        text = '# TYPE a counter\na{b=unquoted} 1\n'
        with pytest.raises(ObsError, match="malformed"):
            validate_exposition(text)

    def test_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.5"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        with pytest.raises(ObsError, match="not cumulative"):
            validate_exposition(text)

    def test_rejects_missing_inf_bucket(self):
        text = '# TYPE h histogram\nh_bucket{le="0.5"} 1\nh_count 1\n'
        with pytest.raises(ObsError, match=r"\+Inf"):
            validate_exposition(text)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_count 4\n"
        )
        with pytest.raises(ObsError, match="!= _count"):
            validate_exposition(text)

    def test_accepts_help_comments_and_timestamps(self):
        text = (
            "# HELP a whatever free text\n"
            "# TYPE a counter\n"
            "a 1 1700000000\n"
        )
        families, series = validate_exposition(text)
        assert families == {"a": "counter"}
        assert series[("a", ())] == 1.0

    def test_label_values_unescaped(self):
        text = '# TYPE a counter\na{p="x\\"y\\\\z\\nw"} 1\n'
        _, series = validate_exposition(text)
        ((_, labels),) = series.keys()
        assert dict(labels)["p"] == 'x"y\\z\nw'
