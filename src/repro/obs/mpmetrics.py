"""mmap-backed multiprocess metrics: per-worker files + a fleet merge.

A pre-fork :class:`~repro.serve.pool.ServerPool` runs one metrics registry
per worker process, so any single worker's ``/metrics`` answer used to
describe 1/N of the fleet.  This module makes every worker's registry
observable from any process:

* **Writer** — each worker attaches a :class:`MetricsFileWriter` as the
  mirror of its :class:`~repro.obs.metrics.MetricsRegistry`.  Every
  counter bump / gauge set / histogram observation is copied into a
  fixed-slot mmap file named ``worker-<pid>-gen<generation>.mpm`` under a
  shared directory.  Writes go through a file-wide seqlock (sequence
  number bumped to odd before, even after), so a reader can detect and
  retry torn reads; every value is an aligned 8-byte field, so even a
  torn read never yields a half-written number.
* **Reader** — :func:`read_metrics_file` parses one file (seqlock retry
  with a bounded best-effort fallback, which is what makes a worker
  crash *mid-write* non-fatal: the file stays readable).
  :func:`load_snapshots` scans a directory, drops files whose pid is
  dead or whose weight ``generation`` is stale, and
  :func:`merge_snapshots` folds the survivors into one fleet view:
  counters and histogram buckets are **summed**, gauges resolve
  **last-write** (by write timestamp) or **max**.
* **Reaping** — :func:`reap_stale` unlinks files left behind by dead
  workers (the pool calls it from ``poll()`` after a respawn), so a
  SIGKILL-ed worker's final counts are retired exactly once and never
  double-counted against its replacement.

The file format is versioned and self-describing; no locks are shared
across processes (single writer per file, lock-free readers).
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import dataclass, field

from repro import forksafe
from repro.errors import ObsError
from repro.obs.metrics import Counter, Gauge, Histogram

MAGIC = b"RPMM"
VERSION = 1

#: Fixed header layout (offsets into the file).
_OFF_MAGIC = 0  # 4s
_OFF_VERSION = 4  # u32
_OFF_PID = 8  # u32
_OFF_WORKER = 12  # u32
_OFF_GENERATION = 16  # u32
_OFF_CAPACITY = 20  # u32
_OFF_CREATED = 24  # f64, epoch seconds
_OFF_SEQ = 32  # u64 seqlock (odd = write in progress)
_OFF_USED = 40  # u32 slots allocated
HEADER_SIZE = 64

#: Per-slot layout: metadata region then a fixed value region.
_META_BYTES = 184  # JSON [kind, name, labels, buckets] payload budget
_SLOT_META = 192  # kind u8, pad u8, meta_len u16, pad u32, meta bytes
_SLOT_VALUES = 240
SLOT_SIZE = _SLOT_META + _SLOT_VALUES
MAX_BUCKETS = 24
DEFAULT_CAPACITY = 512

_KIND_COUNTER = 1
_KIND_GAUGE = 2
_KIND_HISTOGRAM = 3
_KIND_NAMES = {
    _KIND_COUNTER: "counter",
    _KIND_GAUGE: "gauge",
    _KIND_HISTOGRAM: "histogram",
}

_FILE_SUFFIX = ".mpm"


def metrics_file_name(pid: int, generation: int) -> str:
    return f"worker-{pid}-gen{generation}{_FILE_SUFFIX}"


def file_size(capacity: int) -> int:
    return HEADER_SIZE + capacity * SLOT_SIZE


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


def _metric_key(metric) -> tuple:
    labels = tuple(sorted(metric.labels.items()))
    if isinstance(metric, Histogram):
        return ("histogram", metric.name, labels, tuple(metric.buckets))
    kind = "counter" if isinstance(metric, Counter) else "gauge"
    return (kind, metric.name, labels)


class MetricsFileWriter:
    """Single-writer mmap mirror of one process's metrics registry.

    Attach via :meth:`repro.obs.metrics.MetricsRegistry.attach_mirror`;
    the registry then calls :meth:`write` (under its own lock, so there
    is exactly one writer) after every mutation.  Failures are absorbed
    and counted in :attr:`dropped` — telemetry must never take down the
    serving path.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        worker: int = 0,
        generation: int = 0,
        capacity: int = DEFAULT_CAPACITY,
        pid: int | None = None,
    ):
        if capacity < 1:
            raise ObsError("metrics file capacity must be >= 1")
        self.directory = os.fspath(directory)
        self.worker = int(worker)
        self.generation = int(generation)
        self.capacity = int(capacity)
        self.pid = os.getpid() if pid is None else int(pid)
        self.path = os.path.join(
            self.directory, metrics_file_name(self.pid, self.generation)
        )
        self.dropped = 0  # metrics we could not mirror (full/oversized meta)
        self._lock = forksafe.Lock()
        self._slots: dict[tuple, int] = {}
        self._seq = 0
        self._closed = False

        os.makedirs(self.directory, exist_ok=True)
        size = file_size(self.capacity)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR | os.O_TRUNC, 0o644)
        try:
            os.ftruncate(fd, size)
            import mmap

            self._mmap = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        header = bytearray(HEADER_SIZE)
        struct.pack_into("<4s", header, _OFF_MAGIC, MAGIC)
        struct.pack_into("<I", header, _OFF_VERSION, VERSION)
        struct.pack_into("<I", header, _OFF_PID, self.pid)
        struct.pack_into("<I", header, _OFF_WORKER, self.worker)
        struct.pack_into("<I", header, _OFF_GENERATION, self.generation)
        struct.pack_into("<I", header, _OFF_CAPACITY, self.capacity)
        struct.pack_into(
            "<d", header, _OFF_CREATED,
            time.time(),  # staticcheck: ignore[determinism] -- telemetry timestamps are intentionally wall-clock
        )
        struct.pack_into("<Q", header, _OFF_SEQ, 0)
        struct.pack_into("<I", header, _OFF_USED, 0)
        self._mmap[:HEADER_SIZE] = bytes(header)

    # ------------------------------------------------------------------
    def write(self, metric) -> None:
        """Mirror one metric's current state into the file (never raises)."""
        try:
            with self._lock:
                if self._closed:
                    return
                key = _metric_key(metric)
                slot = self._slots.get(key)
                if slot is None:
                    slot = self._allocate(key, metric)
                    if slot is None:
                        self.dropped += 1
                        return
                    self._slots[key] = slot
                self._begin_write()
                self._pack_values(slot, metric)
                self._end_write()
        except Exception:  # pragma: no cover - defensive mirror boundary
            self.dropped += 1

    # -- seqlock -------------------------------------------------------
    def _begin_write(self) -> None:
        self._seq += 1  # odd: write in progress
        struct.pack_into("<Q", self._mmap, _OFF_SEQ, self._seq)

    def _end_write(self) -> None:
        self._seq += 1  # even: consistent
        struct.pack_into("<Q", self._mmap, _OFF_SEQ, self._seq)

    # -- slots ---------------------------------------------------------
    def _allocate(self, key: tuple, metric) -> int | None:
        used = len(self._slots)
        if used >= self.capacity:
            return None
        if isinstance(metric, Histogram):
            if len(metric.buckets) > MAX_BUCKETS:
                return None
            kind = _KIND_HISTOGRAM
            buckets = [
                b if math.isfinite(b) else None for b in metric.buckets
            ]
        else:
            kind = (
                _KIND_COUNTER if isinstance(metric, Counter) else _KIND_GAUGE
            )
            buckets = None
        meta = json.dumps(
            [metric.name, sorted(metric.labels.items()), buckets],
            separators=(",", ":"),
        ).encode()
        if len(meta) > _META_BYTES:
            return None
        offset = HEADER_SIZE + used * SLOT_SIZE
        self._begin_write()
        struct.pack_into("<BBHI", self._mmap, offset, kind, 0, len(meta), 0)
        self._mmap[offset + 8:offset + 8 + len(meta)] = meta
        struct.pack_into("<I", self._mmap, _OFF_USED, used + 1)
        self._end_write()
        return used

    def _pack_values(self, slot: int, metric) -> None:
        offset = HEADER_SIZE + slot * SLOT_SIZE + _SLOT_META
        m = self._mmap
        now = time.time()  # staticcheck: ignore[determinism] -- last-write resolution across workers needs wall-clock
        if isinstance(metric, Histogram):
            struct.pack_into(
                "<Qddd", m, offset,
                metric.count, metric.total, metric.min, metric.max,
            )
            struct.pack_into(
                f"<{len(metric.counts)}Q", m, offset + 32, *metric.counts
            )
        else:
            struct.pack_into("<dd", m, offset, float(metric.value), now)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._mmap.flush()

    def close(self, *, unlink: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._mmap.flush()
            finally:
                self._mmap.close()
        if unlink:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self) -> "MetricsFileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
    seq: int
    alive: bool
    torn: bool  # best-effort read after seqlock retries ran out
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


def _parse_header(data: bytes, path: str) -> dict:
    if len(data) < HEADER_SIZE:
        raise ObsError(f"{path}: truncated metrics file header")
    magic, = struct.unpack_from("<4s", data, _OFF_MAGIC)
    if magic != MAGIC:
        raise ObsError(f"{path}: not a metrics file (bad magic {magic!r})")
    version, = struct.unpack_from("<I", data, _OFF_VERSION)
    if version != VERSION:
        raise ObsError(f"{path}: unsupported metrics file version {version}")
    pid, worker, generation, capacity = struct.unpack_from(
        "<IIII", data, _OFF_PID
    )
    created, = struct.unpack_from("<d", data, _OFF_CREATED)
    seq, = struct.unpack_from("<Q", data, _OFF_SEQ)
    used, = struct.unpack_from("<I", data, _OFF_USED)
    return {
        "pid": pid,
        "worker": worker,
        "generation": generation,
        "capacity": capacity,
        "created_ts": created,
        "seq": seq,
        "used": min(used, capacity),
    }


def _parse_slots(data: bytes, used: int) -> list[dict]:
    rows: list[dict] = []
    for slot in range(used):
        offset = HEADER_SIZE + slot * SLOT_SIZE
        if offset + SLOT_SIZE > len(data):
            break
        kind, _pad, meta_len, _pad2 = struct.unpack_from("<BBHI", data, offset)
        name_of = _KIND_NAMES.get(kind)
        if name_of is None or meta_len > _META_BYTES:
            continue
        try:
            name, label_items, buckets = json.loads(
                data[offset + 8:offset + 8 + meta_len].decode()
            )
        except (ValueError, UnicodeDecodeError):
            continue  # torn/garbled slot metadata: skip just this slot
        labels = dict(label_items)
        voff = offset + _SLOT_META
        row: dict = {
            "type": "metric", "kind": name_of, "name": name, "labels": labels,
        }
        if kind == _KIND_HISTOGRAM:
            hist = _histogram(name, buckets)
            hist.count, hist.total, hist.min, hist.max = struct.unpack_from(
                "<Qddd", data, voff
            )
            hist.counts = list(
                struct.unpack_from(f"<{len(buckets)}Q", data, voff + 32)
            )
            row.update(hist.row())
        else:
            value, updated = struct.unpack_from("<dd", data, voff)
            row["value"] = value
            row["updated"] = updated
        rows.append(row)
    return rows


def read_metrics_file(
    path: str | os.PathLike,
    *,
    retries: int = 10,
    best_effort: bool = True,
) -> WorkerSnapshot:
    """Decode one worker metrics file with seqlock-consistent retries.

    A write in progress (odd sequence) or a sequence that moved between
    two reads triggers a retry.  After *retries* attempts the last copy
    is decoded anyway when *best_effort* (every numeric field is an
    aligned 8-byte value, so individual numbers are never torn — only
    cross-metric consistency is at stake), which is what keeps a file
    readable when its writer was SIGKILL-ed mid-write and the sequence
    is stuck odd forever.
    """
    path = os.fspath(path)
    data = b""
    torn = True
    for _ in range(max(1, retries)):
        with open(path, "rb") as handle:
            data = handle.read()
        header = _parse_header(data, path)
        if header["seq"] % 2 == 1:
            time.sleep(0.001)
            continue
        with open(path, "rb") as handle:
            check = handle.read(HEADER_SIZE)
        seq_after, = struct.unpack_from("<Q", check, _OFF_SEQ)
        if seq_after == header["seq"]:
            torn = False
            break
        time.sleep(0.001)
    if torn and not best_effort:
        raise ObsError(f"{path}: metrics file busy (seqlock never settled)")
    header = _parse_header(data, path)
    return WorkerSnapshot(
        path=path,
        pid=header["pid"],
        worker=header["worker"],
        generation=header["generation"],
        created_ts=header["created_ts"],
        seq=header["seq"],
        alive=pid_alive(header["pid"]),
        torn=torn,
        rows=_parse_slots(data, header["used"]),
    )


def load_snapshots(
    directory: str | os.PathLike,
    *,
    live_only: bool = True,
    min_generation: int | None = None,
) -> list[WorkerSnapshot]:
    """Decode every readable metrics file under *directory*.

    ``live_only`` drops files whose writer pid is dead; ``min_generation``
    drops files published by an older weight generation (a rolling reload
    briefly overlaps two generations — both count as live until the old
    workers drain and their files are reaped).
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
            continue  # partially created / foreign file: not our problem
        if live_only and not snapshot.alive:
            continue
        if min_generation is not None and snapshot.generation < min_generation:
            continue
        snapshots.append(snapshot)
    snapshots.sort(key=lambda s: (s.worker, s.pid))
    return snapshots


def reap_stale(
    directory: str | os.PathLike,
    *,
    keep_pids: tuple | list | set = (),
) -> list[str]:
    """Unlink metrics files whose writer process is gone.

    Returns the removed paths.  Files for pids in *keep_pids* are always
    kept (the pool passes its current worker pids so a just-forked worker
    whose file predates the liveness check cannot be reaped by accident).
    """
    directory = os.fspath(directory)
    keep = {int(pid) for pid in keep_pids}
    removed: list[str] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return removed
    for name in names:
        if not name.endswith(_FILE_SUFFIX):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as handle:
                header = _parse_header(handle.read(HEADER_SIZE), path)
            pid = header["pid"]
        except (ObsError, OSError):
            pid = -1  # unreadable: treat as dead debris
        if pid in keep or (pid > 0 and pid_alive(pid)):
            continue
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
    min/max take the extremes; a gauge takes the value of its newest
    write.  The output rows have the same shape as
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` rows, plus a
    ``workers`` count per row.
    """
    merged: dict[tuple, dict] = {}
    histograms: dict[tuple, Histogram] = {}
    for snapshot in snapshots:
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
                elif row["kind"] == "counter":
                    into["value"] = 0.0
                else:
                    into["value"] = math.nan
                    into["updated"] = -math.inf
            into["workers"] += 1
            if row["kind"] == "counter":
                into["value"] += row["value"]
            elif row["kind"] == "gauge":
                if row.get("updated", 0.0) >= into["updated"]:
                    into["value"] = row["value"]
                    into["updated"] = row.get("updated", 0.0)
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
    for row in merged.values():
        row.pop("updated", None)
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
