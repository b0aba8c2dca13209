"""Request IDs, context propagation, and the tail-sampled access log."""

import io
import json
import threading

from repro import obs
from repro.obs.requestlog import (
    AccessLog,
    current_request_id,
    new_request_id,
    request_context,
)


class TestRequestContext:
    def test_no_context_means_none(self):
        assert current_request_id() is None

    def test_ids_are_unique_hex(self):
        ids = {new_request_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_context_binds_and_restores(self):
        with request_context("abc123") as rid:
            assert rid == "abc123"
            assert current_request_id() == "abc123"
        assert current_request_id() is None

    def test_context_mints_when_missing(self):
        with request_context() as rid:
            assert current_request_id() == rid
        assert current_request_id() is None

    def test_nested_contexts_restore_outer(self):
        with request_context("outer"):
            with request_context("inner"):
                assert current_request_id() == "inner"
            assert current_request_id() == "outer"

    def test_threads_do_not_inherit(self):
        seen = []
        with request_context("parent"):
            t = threading.Thread(target=lambda: seen.append(current_request_id()))
            t.start()
            t.join()
        assert seen == [None]

    def test_spans_pick_up_request_id(self):
        obs.enable()
        try:
            with request_context("deadbeef00000000"):
                with obs.span("unit.test.op"):
                    pass
            spans = [
                s for s in obs.tracer().spans() if s.name == "unit.test.op"
            ]
            assert spans
            assert spans[-1].attrs["request_id"] == "deadbeef00000000"
        finally:
            obs.disable()

    def test_explicit_span_attr_wins(self):
        obs.enable()
        try:
            with request_context("ctx"):
                with obs.span("unit.test.op2", request_id="explicit"):
                    pass
            spans = [
                s for s in obs.tracer().spans() if s.name == "unit.test.op2"
            ]
            assert spans[-1].attrs["request_id"] == "explicit"
        finally:
            obs.disable()


class TestAccessLog:
    def test_disabled_log_is_noop(self):
        log = AccessLog(None)
        assert not log.enabled
        assert log.log(request_id="x", status=200, duration_s=0.01) is None

    def test_fast_success_logs_summary_only(self):
        sink = io.StringIO()
        log = AccessLog(sink, slow_s=1.0)
        record = log.log(
            request_id="r1", status=200, duration_s=0.01, route="/predict"
        )
        assert record["request_id"] == "r1"
        assert "sampled" not in record
        line = json.loads(sink.getvalue())
        assert line["route"] == "/predict"

    def test_error_samples_in(self):
        log = AccessLog(io.StringIO(), slow_s=1.0)
        record = log.log(
            request_id="r2", status=500, duration_s=0.01,
            error="RuntimeError: boom",
        )
        assert record["sampled"] is True
        assert record["error"] == "RuntimeError: boom"

    def test_slow_request_samples_in(self):
        log = AccessLog(io.StringIO(), slow_s=0.1)
        record = log.log(request_id="r3", status=200, duration_s=0.5)
        assert record["sampled"] is True

    def test_none_fields_dropped(self):
        log = AccessLog(io.StringIO())
        record = log.log(
            request_id="r6", status=200, duration_s=0.0,
            cache_hit=None, n_items=2,
        )
        assert "cache_hit" not in record and record["n_items"] == 2

    def test_path_sink_appends_and_closes(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(path) as log:
            assert log.enabled
            log.log(request_id="a", status=200, duration_s=0.0)
            log.log(request_id="b", status=404, duration_s=0.0)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["request_id"] for l in lines] == ["a", "b"]
        assert lines[1]["sampled"] is True
        # closed: subsequent logs are dropped, not raised
        assert log.log(request_id="c", status=200, duration_s=0.0) is None

    def test_closed_stream_drops_instead_of_raising(self):
        sink = io.StringIO()
        log = AccessLog(sink)
        sink.close()
        assert log.log(request_id="x", status=200, duration_s=0.0) is None
