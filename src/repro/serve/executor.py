"""Micro-batching executor: group concurrent requests into merged batches.

Individual requests trickle in (HTTP handlers, ``Engine.predict_batch``
fan-out); the GNN forward pass is much cheaper per circuit when several
circuits share one merged forward.  :class:`BatchExecutor` bridges the two:
requests enter a bounded queue, worker threads drain up to ``max_batch``
items at a time and hand the group to a batch handler, and each caller
gets its own :class:`concurrent.futures.Future`.

Backpressure is explicit: a full queue rejects immediately with
:class:`~repro.errors.ServeOverloadedError` (no unbounded buffering), and
each item can carry a deadline after which it is failed with
:class:`~repro.errors.ServeTimeoutError` instead of being processed.

Observable via ``repro.obs``: ``serve.queue_depth`` (gauge),
``serve.batches_total`` / ``serve.rejected_total`` / ``serve.timeouts_total``
(counters) and ``serve.batch_size`` (histogram).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Sequence

from repro import forksafe, obs
from repro.errors import ServeError, ServeOverloadedError, ServeTimeoutError

#: Histogram buckets for micro-batch sizes.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, float("inf"))


class _Item:
    __slots__ = ("payload", "future", "deadline", "enqueued")

    def __init__(
        self,
        payload: Any,
        future: Future,
        deadline: float | None,
        enqueued: float,
    ):
        self.payload = payload
        self.future = future
        self.deadline = deadline
        self.enqueued = enqueued  # monotonic submit time, for queue-wait


class BatchExecutor:
    """Worker pool that processes queued items in groups.

    Parameters
    ----------
    handler:
        ``handler(payloads) -> results`` called with 1..``max_batch``
        payloads; must return one result per payload, in order.  A result
        that is an :class:`Exception` instance fails only its own item;
        a raised exception fails the whole group.
    max_batch:
        Largest group handed to ``handler`` at once.
    queue_depth:
        Queue capacity; :meth:`submit` beyond it raises
        :class:`ServeOverloadedError`.
    workers:
        Number of worker threads draining the queue.
    timeout_s:
        Default per-item deadline (``None`` = no deadline).
    """

    def __init__(
        self,
        handler: Callable[[Sequence[Any]], Sequence[Any]],
        *,
        max_batch: int = 16,
        queue_depth: int = 128,
        workers: int = 2,
        timeout_s: float | None = None,
        name: str = "serve",
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.handler = handler
        self.max_batch = max_batch
        self.queue_depth = queue_depth
        self.timeout_s = timeout_s
        self.name = name
        self._queue: deque[_Item] = deque()
        self._cond = forksafe.Condition()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def submit(self, payload: Any, *, timeout_s: float | None = None) -> Future:
        """Enqueue one payload; returns its Future.

        Raises
        ------
        ServeOverloadedError
            When the queue is at capacity (typed backpressure signal).
        ServeError
            When the executor has been shut down.
        """
        future: Future = Future()
        now = time.monotonic()
        deadline_s = self.timeout_s if timeout_s is None else timeout_s
        deadline = now + deadline_s if deadline_s is not None else None
        with self._cond:
            if self._closed:
                raise ServeError(f"executor {self.name!r} is shut down")
            if len(self._queue) >= self.queue_depth:
                obs.inc("serve.rejected_total")
                raise ServeOverloadedError(
                    f"serving queue full ({self.queue_depth} pending)",
                    queue_depth=self.queue_depth,
                )
            self._queue.append(_Item(payload, future, deadline, now))
            obs.set_gauge("serve.queue_depth", len(self._queue))
            self._cond.notify()
        return future

    def pending(self) -> int:
        """Items currently queued (not yet claimed by a worker)."""
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed and not self._queue:
                    return
                group = [
                    self._queue.popleft()
                    for _ in range(min(self.max_batch, len(self._queue)))
                ]
                obs.set_gauge("serve.queue_depth", len(self._queue))
            self._process(group)

    def _process(self, group: list[_Item]) -> None:
        # Expired items are dropped *before* batching, and every resolution
        # is gated through set_running_or_notify_cancel: it is the single
        # pending->running transition, so an item can never be resolved
        # twice (no InvalidStateError under load) and a caller-cancelled
        # future is simply skipped.  serve.timeouts_total counts only items
        # whose future we actually failed with ServeTimeoutError.
        now = time.monotonic()
        live: list[_Item] = []
        for item in group:
            if not item.future.set_running_or_notify_cancel():
                continue  # cancelled by the caller; nothing left to resolve
            if item.deadline is not None and now > item.deadline:
                obs.inc("serve.timeouts_total")
                item.future.set_exception(
                    ServeTimeoutError("request timed out while queued")
                )
            else:
                wait = max(0.0, now - item.enqueued)
                # piggybacked on the future so the engine can report the
                # queue wait in the result's timing without an extra channel
                item.future.queue_wait_s = wait
                obs.observe("serve.queue_wait_seconds", wait)
                live.append(item)
        if not live:
            return
        obs.inc("serve.batches_total")
        obs.observe(
            "serve.batch_size", len(live), buckets=BATCH_SIZE_BUCKETS
        )
        try:
            results = self.handler([item.payload for item in live])
        except Exception as error:  # group-level failure
            for item in live:
                item.future.set_exception(error)
            return
        if len(results) != len(live):
            error = ServeError(
                f"batch handler returned {len(results)} results "
                f"for {len(live)} items"
            )
            for item in live:
                item.future.set_exception(error)
            return
        for item, result in zip(live, results):
            if isinstance(result, Exception):
                item.future.set_exception(result)
            else:
                item.future.set_result(result)

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for the queue to drain."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=10.0)

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
