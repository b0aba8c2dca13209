"""``repro.obs`` — pipeline-wide tracing, metrics and profiling.

The observability substrate for the whole package: a hierarchical span
tracer (wall/CPU/memory per stage, nested, thread-safe), a metrics
registry (counters/gauges/histograms), and exporters (JSONL event log,
Chrome ``trace_event`` JSON for Perfetto, aggregated summary tables).

Everything is **off by default and free when off**: instrumented code calls
:func:`span`/:func:`inc`/... unconditionally, and while disabled each call
is a single flag check returning immediately.  Enable collection explicitly
(``obs.enable()``), via the CLI (``--trace out.json`` / ``--obs-jsonl``),
or via the ``REPRO_TRACE`` / ``REPRO_OBS_JSONL`` environment variables
(honoured by the pytest session hook, which is how CI captures artifacts).

Typical use::

    from repro import obs

    obs.enable(memory=True)
    with obs.span("graph.build", circuit=c.name):
        ...
    obs.inc("graphs_built_total")
    obs.export_chrome_trace("trace.json")
    print(obs.summary())
"""

from __future__ import annotations

import functools
import os

from repro.obs.callback import ObsTrainCallback
from repro.obs.export import (
    chrome_trace_events,
    load_events,
    render_summary,
    summarize_spans,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.requestlog import (
    AccessLog,
    current_request_id,
    new_request_id,
    request_context,
)
from repro.obs.tracer import NULL_SPAN, SpanRecord, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "ObsTrainCallback", "SpanRecord", "Tracer", "DEFAULT_BUCKETS",
    "AccessLog", "current_request_id", "new_request_id", "request_context",
    "enable", "disable", "is_enabled", "reset",
    "span", "traced",
    "enable_metrics", "disable_metrics", "metrics_enabled",
    "inc", "set_gauge", "observe", "tracer", "registry",
    "export_jsonl", "export_chrome_trace", "summary",
    "chrome_trace_events", "load_events", "render_summary",
    "summarize_spans", "write_chrome_trace", "write_jsonl",
]

_TRACER = Tracer()
_REGISTRY = MetricsRegistry()
_METRICS_ONLY = False


def tracer() -> Tracer:
    """The process-wide tracer singleton."""
    return _TRACER


def registry() -> MetricsRegistry:
    """The process-wide metrics registry singleton."""
    return _REGISTRY


def enable(memory: bool = False) -> None:
    """Turn span and metric collection on.

    ``memory=True`` additionally starts ``tracemalloc`` and records a net
    allocation delta per span (slower; leave off for timing-only runs).
    """
    _TRACER.enable(memory=memory)


def disable() -> None:
    """Turn collection off (recorded spans/metrics are kept until reset)."""
    _TRACER.disable()


def is_enabled() -> bool:
    return _TRACER.enabled


def enable_metrics() -> None:
    """Turn on metric collection without span collection.

    Long-running serving workers want counters/gauges/histograms (bounded
    state, streamed to their mmap metrics file) but must not accumulate an
    unbounded span list; this enables exactly the former.  Full
    :func:`enable` supersedes it while active.
    """
    global _METRICS_ONLY
    _METRICS_ONLY = True


def disable_metrics() -> None:
    """Undo :func:`enable_metrics` (full ``enable()`` state is untouched)."""
    global _METRICS_ONLY
    _METRICS_ONLY = False


def metrics_enabled() -> bool:
    """True when metric calls record (full enable or metrics-only mode)."""
    return _TRACER._enabled or _METRICS_ONLY


def reset() -> None:
    """Drop all recorded spans and metrics."""
    _TRACER.reset()
    _REGISTRY.reset()


def _forget_mirror() -> None:
    """Drop an inherited metrics mirror in a forked child: it writes the
    parent's mmap metrics file, and two processes writing one file
    corrupt the merged fleet view (a pool worker attaches its own)."""
    _REGISTRY._mirror = None


os.register_at_fork(after_in_child=_forget_mirror)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def span(name: str, **attrs):
    """Time a region: ``with obs.span("sim.ac", bench=name): ...``.

    Returns a shared no-op context manager while collection is disabled.
    """
    if not _TRACER._enabled:
        return NULL_SPAN
    return _TRACER.span(name, **attrs)


def traced(name: str | None = None, **attrs):
    """Decorator form of :func:`span`; defaults to the function's name."""

    def decorate(func):
        span_name = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not _TRACER._enabled:
                return func(*args, **kwargs)
            with _TRACER.span(span_name, **attrs):
                return func(*args, **kwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Metrics (gated so hot paths stay free when off; serving workers flip
# metrics-only mode via enable_metrics() to keep span state bounded)
# ----------------------------------------------------------------------
def inc(name: str, n: float = 1.0, **labels) -> None:
    """Bump a counter (no-op while collection is disabled)."""
    if _TRACER._enabled or _METRICS_ONLY:
        _REGISTRY.inc(name, n, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge (no-op while collection is disabled)."""
    if _TRACER._enabled or _METRICS_ONLY:
        _REGISTRY.set(name, value, **labels)


def observe(
    name: str, value: float, buckets: tuple = DEFAULT_BUCKETS, **labels
) -> None:
    """Record a histogram observation (no-op while collection is disabled)."""
    if _TRACER._enabled or _METRICS_ONLY:
        _REGISTRY.observe(name, value, buckets=buckets, **labels)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def export_jsonl(path: str | os.PathLike) -> str:
    """Write the collected spans + metrics snapshot as JSONL."""
    return write_jsonl(path, _TRACER, _REGISTRY)


def export_chrome_trace(path: str | os.PathLike) -> str:
    """Write a Perfetto/``chrome://tracing``-loadable trace file."""
    return write_chrome_trace(path, _TRACER, _REGISTRY)


def summary() -> str:
    """Rendered per-stage time/memory table for the collected spans."""
    return render_summary(
        [span.as_row() for span in _TRACER.spans()], _REGISTRY.snapshot()
    )
