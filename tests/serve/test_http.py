"""End-to-end HTTP serving with a stdlib-only client (urllib)."""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.api import create_engine
from repro.circuits.spice import write_spice
from repro.serve import PredictionServer, request_from_json
from repro.errors import ApiError


@pytest.fixture(scope="module")
def served(api_cap_predictor, api_multi_model):
    engine = create_engine(
        {"CAP": api_cap_predictor, "multi": api_multi_model}, workers=1
    )
    with PredictionServer(engine, port=0) as server:
        yield server


@pytest.fixture(scope="module")
def netlist_text(tiny_bundle):
    return write_spice(tiny_bundle.records("test")[0].circuit)


def _get(url):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, json.loads(response.read())


def _post_error(url, payload):
    try:
        _post(url, payload)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    raise AssertionError("expected an HTTP error status")


class TestRequestFromJson:
    def test_full_payload(self, netlist_text):
        request = request_from_json(
            {"netlist": netlist_text, "name": "x", "targets": ["CAP"],
             "model": "CAP", "use_cache": False}
        )
        assert request.netlist_text == netlist_text
        assert request.name == "x"
        assert request.targets == ("CAP",)
        assert request.model == "CAP"
        assert request.options.use_cache is False

    def test_rejects_non_object(self):
        with pytest.raises(ApiError, match="JSON object"):
            request_from_json(["nope"])

    def test_rejects_missing_netlist(self):
        with pytest.raises(ApiError, match="netlist"):
            request_from_json({"name": "x"})


class TestEndpoints:
    def test_healthz(self, served):
        status, payload = _get(served.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["compute"] == {"dtype": "float32"}
        assert {row["name"] for row in payload["models"]} == {"CAP", "multi"}

    def test_predict_single(self, served, netlist_text, tiny_bundle):
        status, payload = _post(
            served.url + "/predict", {"netlist": netlist_text, "model": "CAP"}
        )
        assert status == 200
        values = payload["targets"]["CAP"]["values"]
        record = tiny_bundle.records("test")[0]
        assert len(values) == len(record.graph.nodes_of_type["net"])
        assert payload["model"]["name"] == "CAP"

    def test_predict_batch_items(self, served, netlist_text):
        status, payload = _post(
            served.url + "/predict",
            {"items": [
                {"netlist": netlist_text, "model": "CAP"},
                {"netlist": netlist_text, "model": "multi"},
            ]},
        )
        assert status == 200
        results = payload["results"]
        assert len(results) == 2
        assert set(results[0]["targets"]) == {"CAP"}
        assert set(results[1]["targets"]) == {"CAP", "SA"}

    def test_metrics_nested_under_serve(self, served, netlist_text):
        _post(served.url + "/predict", {"netlist": netlist_text, "model": "CAP"})
        status, payload = _get(served.url + "/metrics")
        assert status == 200
        stats = payload["serve"]
        assert stats["graph_cache"]["hits"] + stats["graph_cache"]["misses"] > 0
        assert stats["executor"]["queue_depth"] > 0
        assert "pending" in stats["executor"]


class TestErrorMapping:
    def test_bad_json_is_400(self, served):
        code, payload = _post_error(served.url + "/predict", b"{not json")
        assert code == 400
        assert "not valid JSON" in payload["message"]

    def test_missing_netlist_is_400(self, served):
        code, payload = _post_error(served.url + "/predict", {"name": "x"})
        assert code == 400
        assert "netlist" in payload["message"]

    def test_no_default_model_is_400(self, served, netlist_text):
        # this registry has two models and no "default" entry
        code, payload = _post_error(
            served.url + "/predict", {"netlist": netlist_text}
        )
        assert code == 400
        assert "no default" in payload["message"]

    def test_ungraphable_netlist_is_400(self, served):
        code, payload = _post_error(
            served.url + "/predict",
            {"netlist": "* empty\n.end\n", "model": "CAP"},
        )
        assert code == 400
        assert "no signal nets" in payload["message"]

    def test_unknown_model_is_404(self, served, netlist_text):
        code, payload = _post_error(
            served.url + "/predict", {"netlist": netlist_text, "model": "nope"}
        )
        assert code == 404
        assert "unknown model" in payload["message"]

    def test_batch_over_the_queue_depth_is_413(self, served):
        """A batch the queue can never hold is refused before any item is
        parsed or queued (``{}`` items would otherwise be 400s), and not
        with a 429 that invites a retry."""
        engine = served.engine
        depth = engine.config.queue_depth
        misses = engine.cache.misses
        code, payload = _post_error(
            served.url + "/predict", {"items": [{}] * (depth + 1)}
        )
        assert code == 413
        assert f"queue depth of {depth}" in payload["message"]
        assert engine.cache.misses == misses
        assert engine.stats()["executor"]["pending"] == 0

    def test_unparseable_netlist_is_400_on_every_repeat(self, served):
        for _ in range(2):
            code, payload = _post_error(
                served.url + "/predict",
                {"netlist": "M1 a b\n", "name": "bad", "model": "CAP"},
            )
            assert code == 400

    def test_unknown_route_is_404(self, served):
        try:
            _get(served.url + "/nope")
        except urllib.error.HTTPError as error:
            assert error.code == 404
        else:
            raise AssertionError("expected 404")
        code, _ = _post_error(served.url + "/other", {})
        assert code == 404


class _RecordingWriter:
    """Wraps a handler's ``wfile``; logs every ``write`` it receives."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestKeepAliveWrites:
    """A keep-alive response leaves in one write on a TCP_NODELAY socket.

    Written as headers and body in two sends with Nagle's algorithm on,
    the body of a small response waits for the client's delayed ACK of
    the headers (up to 40 ms on Linux).
    """

    def test_each_response_is_one_write(self, api_cap_predictor, netlist_text):
        import http.client
        import socket

        writes: list[bytes] = []
        nodelay: list[int] = []
        exchanges = [
            ("GET", "/healthz", None, 200),
            ("GET", "/metrics", None, 200),
            ("GET", "/metrics?format=prom", None, 200),
            ("POST", "/predict", {"netlist": netlist_text}, 200),
            ("POST", "/predict", b"{not json", 400),
            ("GET", "/nowhere", None, 404),
        ]
        engine = create_engine(api_cap_predictor, workers=1)
        with PredictionServer(engine, port=0) as server:
            handler = server._server.RequestHandlerClass

            class Recording(handler):
                def setup(self):
                    super().setup()
                    nodelay.append(
                        self.connection.getsockopt(
                            socket.IPPROTO_TCP, socket.TCP_NODELAY
                        )
                    )
                    self.wfile = _RecordingWriter(self.wfile, writes)

            server._server.RequestHandlerClass = Recording
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10.0
            )
            bodies = []
            for method, path, payload, status in exchanges:
                if isinstance(payload, dict):
                    payload = json.dumps(payload).encode()
                connection.request(method, path, body=payload)
                response = connection.getresponse()
                bodies.append(response.read())
                assert response.status == status, path
            connection.close()
        assert len(nodelay) == 1 and nodelay[0] != 0  # one connection, kept alive
        assert len(writes) == len(exchanges)
        for data, body in zip(writes, bodies):
            head, sent = data.split(b"\r\n\r\n", 1)
            assert head.startswith(b"HTTP/1.1 ")
            assert sent == body


def _raw_post_headers(server, content_length: bytes, timeout=3.0):
    """POST headers only over a raw socket; read until the server closes.

    A server that waits for a body, or keeps the connection open, makes
    ``recv`` time out and the test fail instead of hanging.
    """
    address = (server.host, server.port)
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(
            b"POST /predict HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + content_length + b"\r\n\r\n"
        )
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, head.decode("latin-1"), json.loads(body)


class TestBodyLength:
    """Content-Length is validated before the body is read."""

    @pytest.mark.parametrize(
        "content_length,status",
        [
            (b"abc", 400),
            (b"-1", 400),
            (b"16777217", 413),  # one byte over the 16 MiB limit
            (b"1000000000", 413),
        ],
    )
    def test_bad_length_answered_unread_and_closed(
        self, served, content_length, status
    ):
        got, head, payload = _raw_post_headers(served, content_length)
        assert got == status
        assert "Connection: close" in head
        assert payload["error"] == "ApiError"

    def test_body_that_never_arrives_is_answered_and_closed(
        self, served, monkeypatch
    ):
        # the idle timeout, shortened: the handler reads it per connection
        monkeypatch.setattr("repro.serve.http._Handler.timeout", 0.3)
        got, head, payload = _raw_post_headers(served, b"100")
        assert got == 408
        assert "Connection: close" in head
        assert "0.3 s" in payload["message"]


class TestCliServeBuild:
    def test_serve_build_wires_registry_and_server(self, tmp_path,
                                                   api_cap_predictor):
        from repro.cli import _serve_build, build_parser

        api_cap_predictor.save(tmp_path / "CAP.npz")
        args = build_parser().parse_args(
            ["serve", "--models", str(tmp_path), "--port", "0"]
        )
        engine, server = _serve_build(args)
        try:
            server.start()
            status, payload = _get(server.url + "/healthz")
            assert status == 200
            assert payload["models"][0]["name"] == "CAP"
        finally:
            server.shutdown()


class TestLifecycle:
    """Satellite regression: repeated start/stop on a fixed port must not
    leak the listening socket (EADDRINUSE) or hang in shutdown."""

    def _engine(self, api_cap_predictor):
        return create_engine({"CAP": api_cap_predictor}, workers=1)

    def test_restart_on_same_fixed_port(self, api_cap_predictor):
        first = PredictionServer(self._engine(api_cap_predictor), port=0)
        first.start()
        port = first.port
        _get(first.url + "/healthz")
        first.shutdown()
        # the socket was closed, so rebinding the very same port works
        second = PredictionServer(self._engine(api_cap_predictor), port=port)
        try:
            second.start()
            status, _ = _get(second.url + "/healthz")
            assert status == 200
            assert second.port == port
        finally:
            second.shutdown()

    def test_shutdown_without_start_returns_promptly(self, api_cap_predictor):
        server = PredictionServer(self._engine(api_cap_predictor), port=0)
        started = time.monotonic()
        server.shutdown()  # must not block on the never-entered serve loop
        assert time.monotonic() - started < 5.0

    def test_shutdown_is_idempotent(self, api_cap_predictor):
        server = PredictionServer(self._engine(api_cap_predictor), port=0)
        server.start()
        server.shutdown()
        server.shutdown()

    def test_start_after_shutdown_refused(self, api_cap_predictor):
        from repro.errors import ServeError

        server = PredictionServer(self._engine(api_cap_predictor), port=0)
        server.start()
        server.shutdown()
        with pytest.raises(ServeError, match="shut down"):
            server.start()

    def test_worker_id_header(self, api_cap_predictor):
        with PredictionServer(
            self._engine(api_cap_predictor), port=0, worker_id=7
        ) as server:
            request = urllib.request.Request(server.url + "/healthz")
            with urllib.request.urlopen(request, timeout=10.0) as response:
                assert response.headers["X-Worker"] == "7"

    def test_no_worker_header_by_default(self, served):
        request = urllib.request.Request(served.url + "/healthz")
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.headers.get("X-Worker") is None


class TestTelemetry:
    """Request IDs, worker identity on /healthz, Prometheus exposition,
    and the access log — the fleet-observability surface."""

    def _open(self, url, payload=None, headers=None):
        body = json.dumps(payload).encode() if payload is not None else None
        request = urllib.request.Request(url, data=body, headers=headers or {})
        if body is not None:
            request.add_header("Content-Type", "application/json")
        try:
            return urllib.request.urlopen(request, timeout=10.0)
        except urllib.error.HTTPError as error:
            return error

    def test_request_id_minted_on_every_response(self, served):
        response = self._open(served.url + "/healthz")
        rid = response.headers["X-Request-ID"]
        assert rid and len(rid) == 16

    def test_request_id_echoed_when_supplied(self, served, netlist_text):
        response = self._open(
            served.url + "/predict",
            {"netlist": netlist_text, "model": "CAP"},
            headers={"X-Request-ID": "client-id-42"},
        )
        assert response.headers["X-Request-ID"] == "client-id-42"
        payload = json.loads(response.read())
        assert payload["request_id"] == "client-id-42"
        assert "queue_s" in payload["timing"]

    def test_request_id_present_on_errors(self, served):
        for response in (
            self._open(served.url + "/nope"),  # 404
            self._open(served.url + "/predict", {"bogus": True}),  # 400
        ):
            assert response.code in (400, 404)
            assert response.headers["X-Request-ID"]

    def test_healthz_reports_worker_identity(self, api_cap_predictor):
        engine = create_engine({"CAP": api_cap_predictor}, workers=1)
        with PredictionServer(
            engine, port=0, worker_id=3, generation=2
        ) as server:
            response = self._open(server.url + "/healthz")
            payload = json.loads(response.read())
            assert payload["worker"] == {
                "id": 3, "pid": __import__("os").getpid(), "generation": 2,
            }

    def test_prometheus_endpoint_is_valid(self, served, netlist_text):
        from repro import obs
        from repro.obs.expo import CONTENT_TYPE, validate_exposition

        obs.enable_metrics()
        try:
            self._open(
                served.url + "/predict",
                {"netlist": netlist_text, "model": "CAP"},
            )
            # the handler records its request histogram after flushing
            # the response, so wait for that before scraping
            deadline = time.monotonic() + 5.0
            while not any(
                row["name"] == "serve.request_seconds"
                for row in obs.registry().snapshot()
            ):
                assert time.monotonic() < deadline, "request never timed"
                time.sleep(0.005)
            response = self._open(served.url + "/metrics?format=prom")
            assert response.headers["Content-Type"] == CONTENT_TYPE
            families, series = validate_exposition(response.read().decode())
            assert families.get("repro_serve_requests_total") == "counter"
            assert families.get("repro_serve_request_seconds") == "histogram"
        finally:
            obs.disable_metrics()
            obs.registry().reset()

    def test_text_hits_counted_as_a_subset_of_hits(self, served,
                                                   netlist_text):
        from repro import obs

        obs.enable_metrics()
        try:
            for _ in range(3):
                with self._open(
                    served.url + "/predict",
                    {"netlist": netlist_text, "model": "CAP",
                     "name": "text-hit-probe"},
                ) as response:
                    assert response.status == 200
            counters = {
                row["name"]: row["value"]
                for row in obs.registry().snapshot() if row["kind"] == "counter"
            }
            text_hits = counters["serve.graph_cache_text_hits_total"]
            assert 2 <= text_hits <= counters["serve.graph_cache_hits_total"]
        finally:
            obs.disable_metrics()
            obs.registry().reset()

    def test_metrics_dir_surfaces_fleet_views(self, api_cap_predictor,
                                              tmp_path):
        import os

        from repro import obs
        from repro.obs.expo import validate_exposition
        from repro.obs.mpmetrics import MetricsFileWriter

        obs.enable_metrics()
        writer = MetricsFileWriter(tmp_path, worker=0, generation=1)
        obs.registry().attach_mirror(writer)
        engine = create_engine({"CAP": api_cap_predictor}, workers=1)
        try:
            with PredictionServer(
                engine, port=0, worker_id=0, generation=1,
                metrics_dir=str(tmp_path),
            ) as server:
                obs.inc("serve.requests_total", 5)
                health = json.loads(self._open(server.url + "/healthz").read())
                assert health["fleet"] == [
                    {"worker": 0, "pid": os.getpid(), "generation": 1,
                     "alive": True},
                ]
                prom = self._open(server.url + "/metrics?format=prom")
                _, series = validate_exposition(prom.read().decode())
                assert series[("repro_serve_requests_total", ())] == 5.0
                up_keys = [k for k in series if k[0] == "repro_worker_up"]
                assert len(up_keys) == 1
                plain = json.loads(self._open(server.url + "/metrics").read())
                fleet = {row["name"]: row for row in plain["fleet"]}
                assert fleet["serve.requests_total"]["value"] == 5.0
        finally:
            obs.registry().detach_mirror()
            writer.close(unlink=True)
            obs.disable_metrics()
            obs.registry().reset()

    def test_access_log_tail_sampling_through_server(self, api_cap_predictor,
                                                     netlist_text, tmp_path):
        from repro.obs.requestlog import AccessLog

        log_path = tmp_path / "access.jsonl"
        engine = create_engine({"CAP": api_cap_predictor}, workers=1)
        with PredictionServer(
            engine, port=0, access_log=AccessLog(log_path, slow_s=30.0)
        ) as server:
            ok = self._open(
                server.url + "/predict",
                {"netlist": netlist_text, "model": "CAP"},
                headers={"X-Request-ID": "fast-ok"},
            )
            assert ok.code == 200
            bad = self._open(server.url + "/predict", {"bogus": 1})
            assert bad.code == 400
        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        by_id = {l["request_id"]: l for l in lines}
        fast = by_id["fast-ok"]
        assert fast["status"] == 200 and "detail" not in fast
        assert fast["path"] == "/predict" and fast["method"] == "POST"
        assert "cache_hit" in fast and "inference_s" in fast
        (err,) = [l for l in lines if l["status"] == 400]
        assert err["sampled"] is True
        assert "error" in err
