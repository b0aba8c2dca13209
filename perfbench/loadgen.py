"""Closed-loop HTTP/1.1 load over persistent connections.

One thread per connection; each sends its next request only after the
previous response has been read in full.  Responses are kept and checked
after the timed window, so checking never delays the next request.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator

#: Seconds before a request counts as timed out (and failed).
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One request: its id, which body, client-side times and the reply."""

    rid: str
    body: int
    t0: float
    t1: float
    status: int  # 0 when the request raised (timeout, reset)
    data: bytes | None = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class LoadResult:
    samples: list[Sample]
    wall_s: float  # first send to last completion
    cpu_s: float  # this process's CPU time over the same window


def _post(conn: http.client.HTTPConnection, body: bytes, rid: str) -> tuple[int, bytes]:
    conn.request(
        "POST", "/predict", body=body,
        headers={"Content-Type": "application/json", "X-Request-ID": rid},
    )
    response = conn.getresponse()
    return response.status, response.read()


def closed_loop(
    host: str,
    port: int,
    bodies: list[bytes],
    orders: list[Iterator[int]],
    seconds: float,
    *,
    rid_prefix: str = "r",
) -> LoadResult:
    """Drive ``len(orders)`` persistent connections for *seconds*.

    ``orders[c]`` yields the body index connection ``c`` sends next.
    """
    samples: list[Sample] = []
    lock = threading.Lock()
    start = threading.Barrier(len(orders) + 1)
    window: dict[str, float] = {}

    def client(index: int, order: Iterator[int]) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        mine: list[Sample] = []
        start.wait()
        deadline = window["deadline"]
        try:
            count = 0
            while time.perf_counter() < deadline:
                body = next(order)
                rid = f"{rid_prefix}{index}-{count}"
                count += 1
                t0 = time.perf_counter()
                try:
                    status, data = _post(conn, bodies[body], rid)
                except (OSError, http.client.HTTPException):
                    status, data = 0, None
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=REQUEST_TIMEOUT_S
                    )
                mine.append(Sample(rid, body, t0, time.perf_counter(), status, data))
        finally:
            conn.close()
            with lock:
                samples.extend(mine)

    threads = [
        threading.Thread(target=client, args=(i, order), daemon=True)
        for i, order in enumerate(orders)
    ]
    for thread in threads:
        thread.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    window["deadline"] = t0 + seconds
    start.wait()
    for thread in threads:
        thread.join()
    wall = max((s.t1 for s in samples), default=t0) - t0
    return LoadResult(samples, wall, time.process_time() - cpu0)


def outcomes(samples: list[Sample], check: Callable[[Sample], bool]) -> list[bool]:
    """Per attempted request: answered with HTTP 200 *and* checked correct."""
    return [sample.status == 200 and check(sample) for sample in samples]


def send_each(host: str, port: int, bodies: list[bytes], check: Callable[[int, bytes], bool]) -> None:
    """Warm-up: send every body once over one connection; fail loudly."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        for index, body in enumerate(bodies):
            status, data = _post(conn, body, f"warm-{index}")
            if status != 200 or not check(index, data):
                raise RuntimeError(
                    f"warm-up request {index} failed: HTTP {status} {data[:200]!r}"
                )
    finally:
        conn.close()
