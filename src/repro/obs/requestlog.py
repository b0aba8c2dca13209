"""Request-scoped identity and the structured JSON access log.

A request ID is minted (or adopted from an ``X-Request-ID`` header) at
the HTTP edge and carried through the serving stack in a
:mod:`contextvars` variable, so the batch executor, engine, cache, and
any :func:`repro.obs.span` opened underneath automatically pick it up —
no parameter threading through call signatures that predate serving.

:class:`AccessLog` writes one JSON line per request.  It is
**tail-sampled**: the cheap summary fields (id, worker, status, timing
breakdown) are always logged, but the expensive ``detail`` payload
(per-request span tree, error text) is attached only when the request
was slow or failed — the requests an operator actually greps for.
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import json
import os
import uuid

from repro import forksafe

_REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_request_id", default=None
)


def new_request_id() -> str:
    """A fresh 16-hex-char request ID (collision-safe per fleet lifetime)."""
    return uuid.uuid4().hex[:16]


def current_request_id() -> str | None:
    """The request ID bound to the calling context, if any."""
    return _REQUEST_ID.get()


@contextlib.contextmanager
def request_context(request_id: str | None = None):
    """Bind *request_id* (minted if None) for the duration of the block."""
    rid = request_id or new_request_id()
    token = _REQUEST_ID.set(rid)
    try:
        yield rid
    finally:
        _REQUEST_ID.reset(token)


class AccessLog:
    """Line-per-request JSON access log with tail-based detail sampling.

    Parameters
    ----------
    sink:
        A writable text stream, a path to append to, or None (disabled —
        every call is a cheap no-op so the server can hold one
        unconditionally).
    slow_s:
        Requests at or above this wall time are "slow" and get the
        ``detail`` payload attached (alongside every status >= 400).
    """

    def __init__(self, sink=None, *, slow_s: float = 0.25):
        self.slow_s = float(slow_s)
        self._lock = forksafe.Lock()
        self._owns_stream = False
        if sink is None or isinstance(sink, io.IOBase) or hasattr(sink, "write"):
            self._stream = sink
        else:
            self._stream = open(os.fspath(sink), "a", encoding="utf-8")
            self._owns_stream = True

    @property
    def enabled(self) -> bool:
        return self._stream is not None

    def log(
        self,
        *,
        request_id: str,
        status: int,
        duration_s: float,
        detail_fn=None,
        **fields,
    ) -> dict | None:
        """Write one access-log line; returns the record (None if disabled).

        ``detail_fn`` is a zero-argument callable producing the expensive
        detail payload; it runs only when this request samples in
        (status >= 400 or duration >= ``slow_s``) so the fast path never
        pays for span serialization.
        """
        if self._stream is None:
            return None
        record = {
            "type": "access",
            "request_id": request_id,
            "status": int(status),
            "duration_s": round(float(duration_s), 6),
        }
        record.update({k: v for k, v in fields.items() if v is not None})
        sampled = status >= 400 or duration_s >= self.slow_s
        if sampled:
            record["sampled"] = True
            if detail_fn is not None:
                try:
                    record["detail"] = detail_fn()
                except Exception as error:  # detail must never kill serving
                    record["detail_error"] = repr(error)
        line = json.dumps(record, default=str)
        with self._lock:
            try:
                self._stream.write(line + "\n")
                self._stream.flush()
            except (OSError, ValueError):
                return None  # closed / full sink: drop, don't fail the request
        return record

    def close(self) -> None:
        if self._owns_stream and self._stream is not None:
            try:
                self._stream.close()
            finally:
                self._stream = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
