"""Multiprocess metrics: per-worker snapshot files + a fleet merge.

A pre-fork :class:`~repro.serve.pool.ServerPool` runs one metrics registry
per worker process, so any single worker's ``/metrics`` answer used to
describe 1/N of the fleet.  This module makes every worker's registry
observable from any process:

* **Writer** — each worker publishes its registry's
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` through a
  :class:`MetricsFileWriter` as one JSON file named
  ``worker-<pid>-gen<generation>.json`` under a shared directory.  A
  publish writes a temp file and renames it into place, so a reader sees
  either a whole snapshot or the one before it, and a worker killed
  mid-write leaves its last snapshot intact (plus a ``.tmp`` file).  A
  pool worker publishes before it reports ready, once a second from its
  heartbeat thread and just before it answers ``/metrics`` or
  ``/healthz``.
* **Reader** — :func:`read_metrics_file` loads one file,
  :func:`load_snapshots` scans a directory and drops ``.tmp`` files and
  files whose pid is dead, and :func:`merge_snapshots` folds the
  survivors into one fleet view: counters and histogram buckets are
  **summed**, a gauge takes its value from the most recently published
  snapshot.
* **Reaping** — :func:`reap_stale` unlinks the files (and ``.tmp``
  files) left behind by dead workers (the pool calls it from ``poll()``
  after a respawn), so a SIGKILL-ed worker's final counts are retired
  exactly once and never double-counted against its replacement.

No locks are shared across processes: each file has one writer process,
and readers take no lock.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass, field

from repro import forksafe
from repro.errors import ObsError
from repro.obs.metrics import Histogram

_FILE_SUFFIX = ".json"
_FILE_NAME = re.compile(r"worker-(\d+)-gen\d+\.json(\.tmp)?")


def metrics_file_name(pid: int, generation: int) -> str:
    return f"worker-{pid}-gen{generation}{_FILE_SUFFIX}"


def pid_alive(pid: int) -> bool:
    """True when *pid* names a live process we could signal."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another uid
        return True
    return True


class MetricsFileWriter:
    """Publishes one process's registry snapshot as a JSON file.

    The file is created by the first :meth:`publish` and replaced whole
    by each one after it.  :meth:`close` stops publishing and, with
    ``unlink=True``, removes the file.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        worker: int = 0,
        generation: int = 0,
        pid: int | None = None,
    ):
        self.directory = os.fspath(directory)
        self.worker = int(worker)
        self.generation = int(generation)
        self.pid = os.getpid() if pid is None else int(pid)
        self.path = os.path.join(
            self.directory, metrics_file_name(self.pid, self.generation)
        )
        self.created = time.time()  # staticcheck: ignore[determinism] -- telemetry timestamps are intentionally wall-clock
        self._lock = forksafe.Lock()
        self._closed = False
        os.makedirs(self.directory, exist_ok=True)

    def publish(self, registry) -> None:
        """Replace the file with *registry*'s snapshot.

        The writer lock also covers the snapshot, so concurrent publishes
        (the heartbeat and a ``/metrics`` handler) land in the order they
        were taken and a file never moves back in time.  The registry
        lock nests inside the writer lock and never around it.
        """
        tmp = self.path + ".tmp"
        with self._lock:
            if self._closed:
                return
            published = time.time()  # staticcheck: ignore[determinism] -- readers compare it with the wall clock of their requests
            payload = {
                "pid": self.pid,
                "worker": self.worker,
                "generation": self.generation,
                "created": self.created,
                "published": published,
                "rows": registry.snapshot(),
            }
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self.path)

    def close(self, *, unlink: bool = False) -> None:
        with self._lock:
            self._closed = True
        if unlink:
            try:
                os.unlink(self.path)
            except OSError:
                pass


# ----------------------------------------------------------------------
# Reader side
# ----------------------------------------------------------------------
@dataclass
class WorkerSnapshot:
    """One worker metrics file, decoded."""

    path: str
    pid: int
    worker: int
    generation: int
    created_ts: float
    published_ts: float
    alive: bool
    rows: list = field(default_factory=list)

    def row(self, name: str, kind: str | None = None) -> dict | None:
        """First row matching *name* (and *kind*), or None."""
        for row in self.rows:
            if row["name"] == name and (kind is None or row["kind"] == kind):
                return row
        return None

    def value(self, name: str, default: float = 0.0) -> float:
        row = self.row(name)
        if row is None or "value" not in row:
            return default
        return row["value"]


def read_metrics_file(path: str | os.PathLike) -> WorkerSnapshot:
    """Decode one worker metrics file; :class:`ObsError` when it is
    truncated or not a metrics file."""
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        pid = int(payload["pid"])
        return WorkerSnapshot(
            path=path,
            pid=pid,
            worker=int(payload["worker"]),
            generation=int(payload["generation"]),
            created_ts=float(payload["created"]),
            published_ts=float(payload["published"]),
            alive=pid_alive(pid),
            rows=list(payload["rows"]),
        )
    except (ValueError, TypeError, KeyError) as error:
        raise ObsError(f"{path}: not a metrics file ({error})") from None


def load_snapshots(
    directory: str | os.PathLike, *, live_only: bool = True
) -> list[WorkerSnapshot]:
    """Decode every readable metrics file under *directory*.

    ``.tmp`` files (a publish in progress, or one its writer was killed
    in) are skipped; ``live_only`` also drops files whose writer pid is
    dead.
    """
    directory = os.fspath(directory)
    snapshots: list[WorkerSnapshot] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return snapshots
    for name in names:
        if not name.endswith(_FILE_SUFFIX):
            continue
        try:
            snapshot = read_metrics_file(os.path.join(directory, name))
        except (ObsError, OSError):
            continue  # foreign file, or reaped since the listing
        if live_only and not snapshot.alive:
            continue
        snapshots.append(snapshot)
    snapshots.sort(key=lambda s: (s.worker, s.pid))
    return snapshots


def reap_stale(
    directory: str | os.PathLike,
    *,
    keep_pids: tuple | list | set = (),
) -> list[str]:
    """Unlink metrics files and ``.tmp`` files whose writer is gone.

    The writer pid is read from the file name, so a ``.tmp`` file left by
    a killed publish is reaped too.  Returns the removed paths.  Files for
    pids in *keep_pids* are always kept (the pool passes its current
    worker pids so a just-forked worker whose file predates the liveness
    check cannot be reaped by accident).
    """
    directory = os.fspath(directory)
    keep = {int(pid) for pid in keep_pids}
    removed: list[str] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return removed
    for name in names:
        match = _FILE_NAME.fullmatch(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid in keep or pid_alive(pid):
            continue
        path = os.path.join(directory, name)
        try:
            os.unlink(path)
            removed.append(path)
        except OSError:
            pass
    return removed


# ----------------------------------------------------------------------
# Merge layer
# ----------------------------------------------------------------------
def _merge_key(row: dict) -> tuple:
    labels = tuple(sorted(row["labels"].items()))
    if row["kind"] == "histogram":
        bounds = tuple(b for b, _ in row["buckets"])
        return (row["kind"], row["name"], labels, bounds)
    return (row["kind"], row["name"], labels)


def merge_snapshots(snapshots: list[WorkerSnapshot]) -> list[dict]:
    """Fold per-worker rows into one fleet view.

    Counters and histogram buckets/sums/counts are summed; histogram
    min/max take the extremes; a gauge takes its value from the most
    recently published snapshot.  The output rows have the same shape as
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` rows, plus a
    ``workers`` count per row.
    """
    merged: dict[tuple, dict] = {}
    histograms: dict[tuple, Histogram] = {}
    for snapshot in sorted(snapshots, key=lambda s: s.published_ts):
        for row in snapshot.rows:
            key = _merge_key(row)
            into = merged.get(key)
            if into is None:
                into = merged[key] = {
                    "type": "metric",
                    "kind": row["kind"],
                    "name": row["name"],
                    "labels": dict(row["labels"]),
                    "workers": 0,
                }
                if row["kind"] == "histogram":
                    histograms[key] = _histogram(
                        row["name"], [bound for bound, _ in row["buckets"]]
                    )
                else:
                    into["value"] = 0.0
            into["workers"] += 1
            if row["kind"] == "counter":
                into["value"] += row["value"]
            elif row["kind"] == "gauge":
                into["value"] = row["value"]
            else:
                hist = histograms[key]
                hist.count += row["count"]
                hist.total += row["sum"]
                if row["count"]:
                    hist.min = min(hist.min, row["min"])
                    hist.max = max(hist.max, row["max"])
                for index, (_, count) in enumerate(row["buckets"]):
                    hist.counts[index] += count
    for key, hist in histograms.items():
        merged[key].update(hist.row())
    return sorted(
        merged.values(), key=lambda r: (r["name"], sorted(r["labels"].items()))
    )


def _histogram(name: str, bounds) -> Histogram:
    """An empty :class:`Histogram` over *bounds* as a row stores them
    (an infinite bound as None)."""
    return Histogram(
        name=name,
        buckets=tuple(math.inf if bound is None else bound for bound in bounds),
    )
