"""Prometheus text-format 0.0.4 exposition of the metrics registry.

Translates the repo's dot-path metric naming into Prometheus conventions:

* names are mangled (``serve.requests_total`` →
  ``repro_serve_requests_total``; any character outside
  ``[a-zA-Z0-9_:]`` becomes ``_``, a leading digit gains a prefix);
* counters keep / gain the ``_total`` suffix;
* histograms expand into cumulative ``_bucket{le="..."}`` series plus
  ``_sum`` and ``_count`` (our per-bucket counts are disjoint, the
  exposition converts to Prometheus's cumulative convention);
* label values are escaped per the spec (backslash, quote, newline).

Two renderers: :func:`render_registry_rows` for a single process's
registry snapshot, and :func:`render_fleet` for the merged multiprocess
view (per-worker gauges get a ``worker`` label, counters/histograms are
fleet sums, and each live worker contributes a
``repro_worker_up{worker=...,generation=...}`` liveness series).

:func:`validate_exposition` is a deliberately strict parser used by the
CI serve-smoke job: every ``# TYPE`` declared exactly once and before
its samples, no duplicate series, well-formed names/labels, cumulative
histogram buckets ending in a ``+Inf`` bucket that equals ``_count``.
"""

from __future__ import annotations

import math
import re

from repro.errors import ObsError

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def mangle_name(name: str, *, namespace: str = "repro") -> str:
    """Dot-path metric name → legal Prometheus metric name."""
    out = _INVALID_CHARS.sub("_", name)
    if namespace:
        out = f"{namespace}_{out}"
    if not out or not (out[0].isalpha() or out[0] in "_:"):
        out = f"_{out}"
    return out


def escape_label_value(value) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_le(bound) -> str:
    if bound is None or (isinstance(bound, float) and math.isinf(bound)):
        return "+Inf"
    return f"{float(bound):g}"


def _labels_text(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_INVALID_CHARS.sub("_", str(k))}="{escape_label_value(v)}"'
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


class _Exposition:
    """Accumulates families + samples, renders the text format."""

    def __init__(self) -> None:
        self._families: dict[str, str] = {}  # name -> type
        self._order: list[str] = []
        self._samples: dict[str, list[tuple[str, dict, float]]] = {}

    def family(self, name: str, kind: str) -> None:
        if name not in self._families:
            self._families[name] = kind
            self._order.append(name)
            self._samples[name] = []
        elif self._families[name] != kind:
            raise ObsError(
                f"metric family {name!r} declared as both "
                f"{self._families[name]} and {kind}"
            )

    def sample(self, family: str, name: str, labels: dict, value) -> None:
        self._samples[family].append((name, dict(labels), float(value)))

    def render(self) -> str:
        lines: list[str] = []
        for family in self._order:
            lines.append(f"# TYPE {family} {self._families[family]}")
            for name, labels, value in self._samples[family]:
                lines.append(
                    f"{name}{_labels_text(labels)} {format_value(value)}"
                )
        return "\n".join(lines) + "\n"


def _add_row(expo: _Exposition, row: dict, extra_labels: dict | None = None) -> None:
    labels = dict(row["labels"])
    if extra_labels:
        labels.update(extra_labels)
    kind = row["kind"]
    name = mangle_name(row["name"])
    if kind == "counter":
        if not name.endswith("_total"):
            name += "_total"
        expo.family(name, "counter")
        expo.sample(name, name, labels, row["value"])
    elif kind == "gauge":
        expo.family(name, "gauge")
        value = row["value"]
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return
        expo.sample(name, name, labels, value)
    elif kind == "histogram":
        expo.family(name, "histogram")
        cumulative = 0
        saw_inf = False
        for bound, count in row["buckets"]:
            cumulative += count
            le = _format_le(bound)
            saw_inf = saw_inf or le == "+Inf"
            expo.sample(
                name, f"{name}_bucket", {**labels, "le": le}, cumulative
            )
        if not saw_inf:
            expo.sample(
                name, f"{name}_bucket", {**labels, "le": "+Inf"}, row["count"]
            )
        expo.sample(name, f"{name}_sum", labels, row["sum"])
        expo.sample(name, f"{name}_count", labels, row["count"])


def render_registry_rows(rows: list[dict], *, worker: int | None = None) -> str:
    """Exposition for one process's registry snapshot rows."""
    expo = _Exposition()
    extra = {"worker": worker} if worker is not None else None
    for row in rows:
        _add_row(expo, row, extra)
    return expo.render()


def render_fleet(snapshots) -> str:
    """Exposition of the merged fleet view from worker metrics files.

    Counters and histograms are fleet-wide sums over the live snapshots;
    gauges stay per-worker (a ``worker`` label) because summing a queue
    depth across workers and last-writing an RSS both lose the signal
    operators actually chart.  Each snapshot also contributes
    ``repro_worker_up{worker,pid,generation} 1``.
    """
    from repro.obs.mpmetrics import merge_snapshots

    expo = _Exposition()
    merged = merge_snapshots(snapshots)
    for row in merged:
        if row["kind"] != "gauge":
            _add_row(expo, row)
    for snapshot in snapshots:
        for row in snapshot.rows:
            if row["kind"] == "gauge":
                _add_row(expo, row, {"worker": snapshot.worker})
    up = mangle_name("worker_up")
    expo.family(up, "gauge")
    for snapshot in snapshots:
        expo.sample(
            up, up,
            {
                "worker": snapshot.worker,
                "pid": snapshot.pid,
                "generation": snapshot.generation,
            },
            1 if snapshot.alive else 0,
        )
    return expo.render()


# ----------------------------------------------------------------------
# Strict parsing / validation (the CI scrape gate)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _parse_labels(text: str) -> dict:
    labels: dict[str, str] = {}
    rest = text.strip()
    while rest:
        match = _LABEL_RE.match(rest)
        if not match:
            raise ObsError(f"malformed label pair at {rest!r}")
        name = match.group("name")
        if name in labels:
            raise ObsError(f"duplicate label name {name!r}")
        labels[name] = (
            match.group("value")
            .replace(r"\"", '"')
            .replace(r"\n", "\n")
            .replace("\\\\", "\\")
        )
        rest = rest[match.end():].lstrip()
        if rest.startswith(","):
            rest = rest[1:].lstrip()
        elif rest:
            raise ObsError(f"expected ',' between labels at {rest!r}")
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def validate_exposition(text: str) -> tuple[dict, dict]:
    """Strictly parse exposition text.

    Returns ``(families, series)`` where *families* maps family name →
    type and *series* maps ``(sample name, sorted label items)`` → value.
    Raises :class:`~repro.errors.ObsError` on any spec violation:
    re-declared or missing ``# TYPE``, duplicate series, malformed names,
    labels or values, non-cumulative histogram buckets, or a histogram
    whose ``+Inf`` bucket disagrees with its ``_count``.
    """
    families: dict[str, str] = {}
    series: dict[tuple, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ObsError(f"line {lineno}: malformed TYPE comment")
                _, _, name, kind = parts
                if kind not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    raise ObsError(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                if name in families:
                    raise ObsError(
                        f"line {lineno}: # TYPE {name} declared twice"
                    )
                if not _NAME_RE.match(name):
                    raise ObsError(
                        f"line {lineno}: illegal metric name {name!r}"
                    )
                families[name] = kind
            continue  # HELP and other comments are free-form
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ObsError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        try:
            labels = _parse_labels(match.group("labels") or "")
            value = _parse_value(match.group("value"))
        except (ObsError, ValueError) as error:
            raise ObsError(f"line {lineno}: {error}") from None
        family = _family_of(name, families)
        if family is None:
            raise ObsError(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        for label in labels:
            if not _LABEL_NAME_RE.match(label):
                raise ObsError(
                    f"line {lineno}: illegal label name {label!r}"
                )
        key = (name, tuple(sorted(labels.items())))
        if key in series:
            raise ObsError(f"line {lineno}: duplicate series {key!r}")
        series[key] = value
    _validate_histograms(families, series)
    return families, series


def _family_of(name: str, families: dict) -> str | None:
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if families.get(base) in ("histogram", "summary"):
                return base
    return None


def _validate_histograms(families: dict, series: dict) -> None:
    # group bucket series per histogram child (labels minus 'le')
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    for (name, labels), value in series.items():
        if not name.endswith("_bucket"):
            continue
        base = name[: -len("_bucket")]
        if families.get(base) != "histogram":
            continue
        label_map = dict(labels)
        le = label_map.pop("le", None)
        if le is None:
            raise ObsError(f"histogram bucket {name!r} is missing 'le'")
        key = (base, tuple(sorted(label_map.items())))
        buckets.setdefault(key, []).append((_parse_value(le), value))
    for (base, labels), pairs in buckets.items():
        pairs.sort(key=lambda p: p[0])
        previous = 0.0
        for bound, value in pairs:
            if value < previous:
                raise ObsError(
                    f"{base}: bucket counts not cumulative at le={bound}"
                )
            previous = value
        if not pairs or not math.isinf(pairs[-1][0]):
            raise ObsError(f"{base}: histogram has no le=\"+Inf\" bucket")
        count = series.get((f"{base}_count", labels))
        if count is not None and count != pairs[-1][1]:
            raise ObsError(
                f"{base}: +Inf bucket {pairs[-1][1]} != _count {count}"
            )
