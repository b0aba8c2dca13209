"""Hierarchical span tracer: wall-clock, CPU and memory per pipeline stage.

A *span* is one timed region of the pipeline (``graph.build``, ``sim.ac``,
``train.epoch``...).  Spans nest: entering a span while another is open on
the same thread records a parent/child relationship, so a trace reconstructs
the call structure of a whole run (dataset build -> layout synthesis ->
training epochs -> checkpoints).

Design constraints, in priority order:

* **Zero overhead when disabled.**  ``Tracer.span`` returns a shared no-op
  context manager after a single flag check; no dict, no timestamps, no
  locks.  Hot paths can therefore call it unconditionally.
* **Thread safety.**  The active-span stack is thread-local (nesting is a
  per-thread notion); finished spans append to one list under a lock.
* **Honest memory numbers.**  ``cpu`` is per-thread CPU time
  (``time.thread_time``).  ``rss_kb`` is the process peak RSS at span end
  (a monotonic high-water mark, not a per-span delta).  ``mem_delta`` is
  the net ``tracemalloc`` allocation delta across the span and is only
  recorded when the tracer was enabled with ``memory=True``.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from dataclasses import dataclass, field

from repro import forksafe
from repro.obs.requestlog import current_request_id

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (0 where the resource module is missing)."""
    if resource is None:  # pragma: no cover
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: int | None
    name: str
    thread_id: int
    thread_name: str
    t_wall: float  # epoch seconds at span start
    duration: float  # wall-clock seconds
    cpu: float  # thread CPU seconds
    rss_kb: int  # process peak RSS at span end, KiB
    mem_delta: int | None  # tracemalloc net allocation delta, bytes
    depth: int
    attrs: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "thread": self.thread_id,
            "thread_name": self.thread_name,
            "t_wall": self.t_wall,
            "duration": self.duration,
            "cpu": self.cpu,
            "rss_kb": self.rss_kb,
            "mem_delta": self.mem_delta,
            "depth": self.depth,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """A live span; becomes a :class:`SpanRecord` on exit."""

    __slots__ = (
        "tracer", "name", "attrs", "span_id", "parent_id", "depth",
        "_t0", "_cpu0", "_wall", "_mem0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_ActiveSpan":
        """Attach extra attributes to the span while it is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        tracer = self.tracer
        stack = tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.depth = len(stack)
        if "request_id" not in self.attrs:
            rid = current_request_id()
            if rid is not None:
                self.attrs["request_id"] = rid
        with tracer._lock:
            self.span_id = tracer._next_id
            tracer._next_id += 1
        stack.append(self)
        self._wall = time.time()  # staticcheck: ignore[determinism] -- span timestamps are intentionally wall-clock
        self._mem0 = (
            tracemalloc.get_traced_memory()[0] if tracer._memory else None
        )
        self._cpu0 = time.thread_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self._t0
        cpu = time.thread_time() - self._cpu0
        tracer = self.tracer
        mem_delta = (
            tracemalloc.get_traced_memory()[0] - self._mem0
            if self._mem0 is not None
            else None
        )
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        thread = threading.current_thread()
        record = SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            t_wall=self._wall,
            duration=duration,
            cpu=cpu,
            rss_kb=_peak_rss_kb(),
            mem_delta=mem_delta,
            depth=self.depth,
            attrs=self.attrs,
        )
        with tracer._lock:
            tracer._spans.append(record)
        return False


class Tracer:
    """Collects spans for one process; usually the module singleton."""

    def __init__(self) -> None:
        self._enabled = False
        self._memory = False
        self._started_tracemalloc = False
        self._lock = forksafe.Lock()
        self._spans: list[SpanRecord] = []
        self._next_id = 1
        self._local = forksafe.local()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, memory: bool = False) -> None:
        """Start collecting spans; ``memory=True`` adds tracemalloc deltas."""
        self._memory = memory
        if memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        self._enabled = True

    def disable(self) -> None:
        """Stop collecting (already-recorded spans are kept)."""
        self._enabled = False
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False
        self._memory = False

    def reset(self) -> None:
        """Drop every recorded span and restart span numbering."""
        with self._lock:
            self._spans = []
            self._next_id = 1

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """Context manager timing one region; no-op while disabled."""
        if not self._enabled:
            return NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def spans(self) -> list[SpanRecord]:
        """Snapshot of the finished spans, in completion order."""
        with self._lock:
            return list(self._spans)
