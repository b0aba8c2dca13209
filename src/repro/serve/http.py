"""Stdlib JSON-over-HTTP endpoint in front of an :class:`Engine`.

Endpoints:

* ``POST /predict`` — body ``{"netlist": "<spice text>", "name": ...,
  "targets": [...], "model": ...}`` for one circuit, or
  ``{"items": [<request>, ...]}`` for a micro-batched group.  Responds with
  a :meth:`PredictionResult.to_json_dict` dump (or ``{"results": [...]}``).
* ``GET /healthz`` — liveness plus the model inventory and the serving
  ``compute`` policy (precision dtype); pool workers
  also report their identity (index, pid, weight ``generation``) and,
  when a metrics directory is wired, per-worker fleet liveness.
* ``GET /metrics`` — engine stats (cache hit rate, queue depth), the
  metrics-registry snapshot when collection is on, and the merged fleet
  rows when a metrics directory is wired.  ``/metrics?format=prom``
  serves Prometheus text-format 0.0.4 instead (fleet-merged when
  possible, this process's registry otherwise).

Every request is tagged with an ``X-Request-ID`` (client-supplied header
or minted here), echoed on **all** responses including errors, bound as
the obs request context for the handler's duration, and written to the
structured access log when one is configured.

Error mapping: bad request body/netlist → 400, unknown model/target → 404,
a ``Content-Length`` over :data:`MAX_BODY_BYTES` or more ``items`` than
the engine's ``queue_depth`` → 413, queue backpressure → 429 (with a
``Retry-After`` hint), queued-too-long → 504, anything else → 500.  A body length that is not a non-negative integer, or too large, is
answered before any of the body is read, and the connection is closed.
A connection that sits idle, or stalls mid-request, for
:data:`IDLE_TIMEOUT_S` is closed (a stalled body is answered 408 first).
Only the standard library is used, so any HTTP client — including
:mod:`urllib.request` — can drive it.
"""

from __future__ import annotations

import json
import os
import socket as socket_module
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro import forksafe, obs
from repro.api.types import PredictionOptions, PredictionRequest
from repro.errors import (
    ApiError,
    GraphConstructionError,
    NetlistError,
    ReproError,
    ServeError,
    ServeOverloadedError,
    ServeTimeoutError,
)
from repro.obs import expo
from repro.obs.requestlog import new_request_id, request_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.engine import Engine

#: Largest ``/predict`` body accepted, in bytes.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Seconds a connection may wait between requests, or for the rest of
#: one, before it is closed.  Well below a pool's drain timeout, since a
#: draining worker waits for every open connection's handler thread.
IDLE_TIMEOUT_S = 5.0


def request_from_json(payload: dict) -> PredictionRequest:
    """Wire format -> :class:`PredictionRequest` (raises ApiError on junk)."""
    if not isinstance(payload, dict):
        raise ApiError("request body must be a JSON object")
    if "netlist" not in payload:
        raise ApiError('request needs a "netlist" field with SPICE text')
    targets = payload.get("targets")
    if targets is not None and not isinstance(targets, (list, tuple)):
        raise ApiError('"targets" must be a list of target names')
    return PredictionRequest(
        netlist_text=str(payload["netlist"]),
        name=payload.get("name"),
        targets=tuple(targets) if targets is not None else None,
        model=payload.get("model"),
        options=PredictionOptions(
            use_cache=bool(payload.get("use_cache", True)),
            timeout_s=payload.get("timeout_s"),
        ),
    )


class _Handler(BaseHTTPRequestHandler):
    # set per-server via type(); silences the default stderr access log
    engine: "Engine" = None  # type: ignore[assignment]
    started_at: float = 0.0
    quiet: bool = True
    worker_id: int | None = None  # pool worker index, for fan-out visibility
    generation: int | None = None  # weight generation (pool workers)
    metrics_dir: str | None = None  # fleet metrics files (pool workers)
    access_log = None  # an AccessLog, or None

    protocol_version = "HTTP/1.1"
    # the per-connection socket timeout of StreamRequestHandler
    timeout = IDLE_TIMEOUT_S
    # Responses leave in one write (see _send_body); with Nagle's algorithm
    # off, a small one is not held back waiting for the client's ACK.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # pragma: no cover - log plumbing
        if not self.quiet:
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------
    def _send_body(
        self, status: int, body: bytes, content_type: str, headers: dict
    ) -> None:
        """Status line, headers and body in a single socket write.

        ``end_headers`` would flush the header buffer on its own, and
        the body would follow as a second segment that a keep-alive
        client ACKs late; the body joins the buffer before the flush.
        """
        self._status = status
        self.send_response(status)
        self.send_header("X-Request-ID", self._request_id)
        if self.worker_id is not None:
            self.send_header("X-Worker", str(self.worker_id))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-"), str(value))
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _send_json(self, status: int, payload: dict, **headers) -> None:
        self._send_body(
            status, json.dumps(payload).encode(), "application/json", headers
        )

    def _send_text(
        self, status: int, text: str, content_type: str, **headers
    ) -> None:
        self._send_body(status, text.encode(), content_type, headers)

    def _send_error_json(self, status: int, error: Exception, **headers) -> None:
        self._log_fields["error"] = f"{type(error).__name__}: {error}"
        self._send_json(
            status,
            {"error": type(error).__name__, "message": str(error)},
            **headers,
        )

    # ------------------------------------------------------------------
    # Request-scoped dispatch: mint/adopt the request ID, bind the obs
    # request context, time the request, emit metrics + access log.
    # ------------------------------------------------------------------
    def _dispatch(self, method_name: str, handler) -> None:
        started = time.perf_counter()
        self._request_id = (
            self.headers.get("X-Request-ID") or new_request_id()
        )
        self._status = 0  # overwritten by the first response sent
        self._log_fields: dict = {}
        path = self.path.split("?", 1)[0]
        with request_context(self._request_id):
            try:
                handler()
            finally:
                duration = time.perf_counter() - started
                obs.observe("serve.request_seconds", duration)
                obs.inc(
                    "serve.http_responses_total", status=str(self._status)
                )
                log = self.access_log
                if log is not None and log.enabled:
                    log.log(
                        request_id=self._request_id,
                        status=self._status,
                        duration_s=duration,
                        worker=self.worker_id,
                        method=method_name,
                        path=path,
                        detail_fn=self._span_detail,
                        **self._log_fields,
                    )

    def _span_detail(self) -> dict:
        """Span rows for this request (tail-sampled: slow/error only)."""
        rid = self._request_id
        rows = [
            span.as_row()
            for span in obs.tracer().spans()[-256:]
            if span.attrs.get("request_id") == rid
        ]
        return {"spans": rows}

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST", self._handle_post)

    # ------------------------------------------------------------------
    def _fleet_snapshots(self, live_only: bool = True):
        from repro.obs.mpmetrics import load_snapshots

        return load_snapshots(self.metrics_dir, live_only=live_only)

    def _handle_get(self) -> None:
        parts = urlsplit(self.path)
        path = parts.path
        query = parse_qs(parts.query)
        if path == "/healthz":
            payload = {
                "status": "ok",
                "uptime_s": time.monotonic() - self.started_at,
                "compute": self.engine.compute_info(),
                "models": self.engine.registry.describe(),
            }
            if self.worker_id is not None:
                payload["worker"] = {
                    "id": self.worker_id,
                    "pid": os.getpid(),
                    "generation": self.generation,
                }
            if self.metrics_dir:
                payload["fleet"] = [
                    {
                        "worker": snap.worker,
                        "pid": snap.pid,
                        "generation": snap.generation,
                        "alive": snap.alive,
                    }
                    for snap in self._fleet_snapshots(live_only=False)
                ]
            self._send_json(200, payload)
        elif path == "/metrics":
            if query.get("format", [""])[0] == "prom":
                if self.metrics_dir:
                    text = expo.render_fleet(self._fleet_snapshots())
                else:
                    text = expo.render_registry_rows(
                        obs.registry().snapshot(), worker=self.worker_id
                    )
                self._send_text(200, text, expo.CONTENT_TYPE)
                return
            payload = {"serve": self.engine.stats()}
            if obs.metrics_enabled():
                payload["obs"] = obs.registry().snapshot()
            if self.metrics_dir:
                from repro.obs.mpmetrics import merge_snapshots

                payload["fleet"] = merge_snapshots(self._fleet_snapshots())
            self._send_json(200, payload)
        else:
            self._send_error_json(404, ApiError(f"no route {path!r}"))

    def _read_body(self) -> bytes | None:
        """The request body, or None once a bad length, or a body that
        stalls for :data:`IDLE_TIMEOUT_S`, has been answered.

        The length is checked before anything is read: a negative one
        would read until the client closes, a huge one would be buffered
        whole.  The unread body leaves the stream unusable, so the
        connection closes after the error.
        """
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if 0 <= length <= MAX_BODY_BYTES:
            try:
                return self.rfile.read(length)
            except TimeoutError:
                status, message = 408, (
                    f"request body not received within {self.timeout:g} s"
                )
        elif length < 0:
            status, message = 400, f"invalid Content-Length {raw!r}"
        else:
            status, message = 413, (
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        self._send_error_json(status, ApiError(message), Connection="close")
        return None

    def _handle_post(self) -> None:
        path = self.path.split("?", 1)[0]
        if path != "/predict":
            self._send_error_json(404, ApiError(f"no route {path!r}"))
            return
        try:
            body = self._read_body()
            if body is None:
                return
            try:
                payload = json.loads(body or b"{}")
            except json.JSONDecodeError as error:
                raise ApiError(f"request body is not valid JSON: {error}")
            if isinstance(payload, dict) and "items" in payload:
                items = payload["items"]
                if not isinstance(items, list):
                    raise ApiError('"items" must be a list of requests')
                depth = self.engine.config.queue_depth
                if len(items) > depth:
                    # a retry could never fit: refuse before any item runs
                    self._send_error_json(413, ApiError(
                        f"batch of {len(items)} items exceeds the serving "
                        f"queue depth of {depth}; split it"
                    ))
                    return
                requests = [request_from_json(item) for item in items]
                for request in requests:
                    request.request_id = self._request_id
                results = self.engine.predict_batch(requests)
                self._log_fields["n_items"] = len(results)
                self._send_json(
                    200, {"results": [r.to_json_dict() for r in results]}
                )
            else:
                request = request_from_json(payload)
                request.request_id = self._request_id
                obs.inc("serve.requests_total")
                result = self.engine.predict(request)
                timing = result.timing
                self._log_fields.update(
                    cache_hit=timing.cache_hit,
                    queue_s=timing.queue_s,
                    graph_s=round(timing.graph_s, 6),
                    inference_s=round(timing.inference_s, 6),
                )
                self._send_json(200, result.to_json_dict())
        except ServeOverloadedError as error:
            self._send_error_json(429, error, Retry_After=1)
        except ServeTimeoutError as error:
            self._send_error_json(504, error)
        except ApiError as error:
            status = 404 if "unknown model" in str(error) else 400
            self._send_error_json(status, error)
        except (NetlistError, GraphConstructionError) as error:
            # the client sent a netlist we cannot parse or graph
            self._send_error_json(400, error)
        except ReproError as error:  # pragma: no cover - defensive
            self._send_error_json(500, error)
        except Exception as error:  # pragma: no cover - defensive
            # never let an unexpected bug close the connection with no
            # response (stdlib would print a traceback and drop the socket)
            self._send_error_json(500, error)


class PredictionServer:
    """A :class:`ThreadingHTTPServer` wrapper around one engine.

    ``port=0`` binds an ephemeral port (the resolved one is on
    :attr:`port` / :attr:`url`).  Use :meth:`start` for a daemon-thread
    server in tests, or :meth:`serve_forever` to block (the CLI path).

    A pre-bound listening socket can be injected via ``socket`` — the pool
    workers pass their SO_REUSEPORT / inherited listeners this way — in
    which case host/port are taken from the socket and the server never
    binds.  ``daemon_threads=False`` makes :meth:`shutdown` join in-flight
    handler threads, which is how a draining pool worker guarantees zero
    failed in-flight requests.

    Lifecycle: :meth:`shutdown` is idempotent, returns promptly even when
    the serve loop was never entered (a bare ``BaseServer.shutdown`` would
    block forever on its never-set event), and always closes the listening
    socket — repeated start/stop cycles on a fixed port therefore never
    hit ``EADDRINUSE``.  A shut-down server cannot be restarted.
    """

    def __init__(
        self,
        engine: "Engine",
        host: str = "127.0.0.1",
        port: int = 8080,
        quiet: bool = True,
        *,
        socket: "socket_module.socket | None" = None,
        worker_id: int | None = None,
        daemon_threads: bool = True,
        generation: int | None = None,
        metrics_dir: str | None = None,
        access_log=None,
    ):
        self.engine = engine
        self.access_log = access_log
        handler = type(
            "BoundHandler",
            (_Handler,),
            {
                "engine": engine,
                "started_at": time.monotonic(),
                "quiet": quiet,
                "worker_id": worker_id,
                "generation": generation,
                "metrics_dir": metrics_dir,
                "access_log": access_log,
            },
        )
        if socket is None:
            self._server = ThreadingHTTPServer((host, port), handler)
        else:
            # adopt the caller's listener: construct unbound, then graft
            self._server = ThreadingHTTPServer(
                socket.getsockname(), handler, bind_and_activate=False
            )
            self._server.socket.close()  # the placeholder from __init__
            self._server.socket = socket
            self._server.server_address = socket.getsockname()
            self._server.server_name = self._server.server_address[0]
            self._server.server_port = self._server.server_address[1]
        self._server.daemon_threads = daemon_threads
        self._server.block_on_close = not daemon_threads
        self._thread: threading.Thread | None = None
        self._lock = forksafe.Lock()
        self._state = "new"  # new -> serving -> closed

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _enter_serving(self) -> None:
        with self._lock:
            if self._state == "closed":
                raise ServeError("server has been shut down; build a new one")
            self._state = "serving"

    def start(self) -> "PredictionServer":
        """Serve from a daemon thread; returns self once listening."""
        self._enter_serving()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever, daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Block and serve until interrupted (the ``repro serve`` path)."""
        self._enter_serving()
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop serving, release the socket, drain the engine (idempotent)."""
        with self._lock:
            state, self._state = self._state, "closed"
        if state == "closed":
            return
        if state == "serving":
            # legal from any thread: serve_forever polls the request flag,
            # so this returns once the loop (running here or elsewhere)
            # exits.  Never call it for state "new" — the loop was never
            # entered and BaseServer.shutdown would wait forever.
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.engine.close()
        if self.access_log is not None:
            # closes only streams the AccessLog itself opened
            self.access_log.close()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
