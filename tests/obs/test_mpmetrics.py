"""Multiprocess metrics files: writer/reader roundtrip, crash tolerance,
staleness filtering, reaping, and the fleet merge."""

import math
import os
import signal
import struct
import subprocess
import threading
import time

import pytest

from repro.errors import ObsError
from repro.obs import mpmetrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.mpmetrics import (
    MetricsFileWriter,
    load_snapshots,
    merge_snapshots,
    metrics_file_name,
    read_metrics_file,
    reap_stale,
)


def mirrored_registry(directory, **kwargs):
    registry = MetricsRegistry()
    writer = MetricsFileWriter(directory, **kwargs)
    registry.attach_mirror(writer)
    return registry, writer


def dead_pid():
    """A pid guaranteed dead: spawn a child and reap it."""
    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


class TestRoundtrip:
    def test_counter_gauge_histogram_roundtrip(self, tmp_path):
        registry, writer = mirrored_registry(
            tmp_path, worker=3, generation=2, capacity=16
        )
        registry.inc("requests_total", 5, route="/predict")
        registry.set("queue_depth", 7.0)
        for v in (0.1, 0.2, 0.9):
            registry.observe("latency_seconds", v, buckets=(0.5, math.inf))
        writer.close()

        snapshot = read_metrics_file(writer.path)
        assert snapshot.pid == os.getpid()
        assert snapshot.worker == 3
        assert snapshot.generation == 2
        assert snapshot.alive and not snapshot.torn

        counter = snapshot.row("requests_total")
        assert counter["kind"] == "counter"
        assert counter["value"] == 5.0
        assert counter["labels"] == {"route": "/predict"}
        assert snapshot.value("queue_depth") == 7.0
        hist = snapshot.row("latency_seconds")
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(1.2)
        assert hist["min"] == 0.1 and hist["max"] == 0.9
        # inf bound serialised as None, counts cumulative-free per bucket
        assert hist["buckets"] == [[0.5, 2], [None, 1]]

    def test_rewrite_updates_in_place(self, tmp_path):
        registry, writer = mirrored_registry(tmp_path)
        for _ in range(10):
            registry.inc("ticks_total")
        snapshot = read_metrics_file(writer.path)
        assert snapshot.value("ticks_total") == 10.0
        assert len(snapshot.rows) == 1
        writer.close()

    def test_attach_mirror_backfills_existing_metrics(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("early_total", 4)
        writer = MetricsFileWriter(tmp_path)
        registry.attach_mirror(writer)
        assert read_metrics_file(writer.path).value("early_total") == 4.0
        writer.close()

    def test_capacity_overflow_counts_drops(self, tmp_path):
        registry, writer = mirrored_registry(tmp_path, capacity=2)
        for i in range(5):
            registry.inc(f"m{i}_total")
        assert writer.dropped == 3
        assert len(read_metrics_file(writer.path).rows) == 2
        writer.close()

    def test_close_unlink_removes_file(self, tmp_path):
        _, writer = mirrored_registry(tmp_path)
        path = writer.path
        writer.close(unlink=True)
        assert not os.path.exists(path)

    def test_file_name_carries_pid_and_generation(self, tmp_path):
        writer = MetricsFileWriter(tmp_path, generation=7)
        assert os.path.basename(writer.path) == metrics_file_name(
            os.getpid(), 7
        )
        writer.close()


class TestCrashTolerance:
    def test_stuck_odd_seqlock_still_readable(self, tmp_path):
        """A writer SIGKILL-ed mid-write leaves the sequence odd forever;
        best-effort decoding must still surface the rows."""
        registry, writer = mirrored_registry(tmp_path)
        registry.inc("requests_total", 9)
        # simulate the crash: force the on-disk sequence odd
        with open(writer.path, "r+b") as handle:
            handle.seek(32)
            handle.write(struct.pack("<Q", 11))
        snapshot = read_metrics_file(writer.path, retries=3)
        assert snapshot.torn
        assert snapshot.value("requests_total") == 9.0
        with pytest.raises(ObsError):
            read_metrics_file(writer.path, retries=3, best_effort=False)
        writer.close()

    def test_sigkilled_child_file_remains_readable(self, tmp_path):
        code = (
            "import sys, time\n"
            "from repro.obs.metrics import MetricsRegistry\n"
            "from repro.obs.mpmetrics import MetricsFileWriter\n"
            "registry = MetricsRegistry()\n"
            "writer = MetricsFileWriter(sys.argv[1], worker=0, generation=1)\n"
            "registry.attach_mirror(writer)\n"
            "registry.inc('spin_total')\n"  # one finished write before ready
            "print('ready', flush=True)\n"
            "while True:\n"
            "    registry.inc('spin_total')\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            ["python", "-c", code, str(tmp_path)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            time.sleep(0.2)  # let it spin through many writes
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
                proc.wait()
        path = os.path.join(tmp_path, metrics_file_name(proc.pid, 1))
        snapshot = read_metrics_file(path, retries=3)
        assert snapshot.value("spin_total") >= 1.0
        assert not snapshot.alive

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "worker-1-gen0.mpm"
        path.write_bytes(b"RPMM")
        with pytest.raises(ObsError):
            read_metrics_file(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "worker-1-gen0.mpm"
        path.write_bytes(b"\x00" * 256)
        with pytest.raises(ObsError):
            read_metrics_file(path)


class TestLoadSnapshots:
    def test_dead_pid_excluded_when_live_only(self, tmp_path):
        _, live = mirrored_registry(tmp_path, worker=0)
        stale = MetricsFileWriter(tmp_path, worker=1, pid=dead_pid())
        stale.close()
        live_snaps = load_snapshots(tmp_path)
        assert [s.pid for s in live_snaps] == [os.getpid()]
        all_snaps = load_snapshots(tmp_path, live_only=False)
        assert len(all_snaps) == 2
        live.close()

    def test_stale_generation_excluded(self, tmp_path):
        old = MetricsFileWriter(tmp_path, worker=0, generation=1)
        new = MetricsFileWriter(tmp_path, worker=1, generation=2)
        snaps = load_snapshots(tmp_path, min_generation=2)
        assert [s.generation for s in snaps] == [2]
        old.close()
        new.close()

    def test_unreadable_debris_skipped(self, tmp_path):
        (tmp_path / "worker-9-gen0.mpm").write_bytes(b"garbage")
        (tmp_path / "notes.txt").write_text("ignored")
        _, writer = mirrored_registry(tmp_path)
        assert len(load_snapshots(tmp_path)) == 1
        writer.close()

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_snapshots(tmp_path / "nope") == []


class TestReap:
    def test_reaps_dead_keeps_live_and_kept(self, tmp_path):
        _, live = mirrored_registry(tmp_path, worker=0)
        gone = dead_pid()
        dead = MetricsFileWriter(tmp_path, worker=1, pid=gone)
        dead.close()
        kept_pid = dead_pid()
        kept = MetricsFileWriter(tmp_path, worker=2, pid=kept_pid)
        kept.close()
        removed = reap_stale(tmp_path, keep_pids=(kept_pid,))
        assert removed == [dead.path]
        assert os.path.exists(live.path)
        assert os.path.exists(kept.path)
        live.close()


class TestMerge:
    def test_merge_counters_equal_sum(self, tmp_path):
        total = 0
        for worker in range(3):
            registry = MetricsRegistry()
            writer = MetricsFileWriter(
                tmp_path, worker=worker, pid=10_000_000 + worker
            )
            registry.attach_mirror(writer)
            registry.inc("requests_total", worker + 1)
            registry.observe("latency", 0.1 * (worker + 1), buckets=(1.0, math.inf))
            total += worker + 1
            writer.close()
        snaps = load_snapshots(tmp_path, live_only=False)
        assert len(snaps) == 3
        merged = merge_snapshots(snaps)
        by_name = {row["name"]: row for row in merged}
        counter = by_name["requests_total"]
        assert counter["value"] == total
        assert counter["workers"] == 3
        hist = by_name["latency"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(0.6)
        assert hist["min"] == pytest.approx(0.1)
        assert hist["max"] == pytest.approx(0.3)
        assert hist["p50"] is not None

    def test_gauge_newest_write_wins(self, tmp_path):
        for worker, value in enumerate((9.0, 2.0)):
            registry = MetricsRegistry()
            writer = MetricsFileWriter(
                tmp_path, worker=worker, pid=10_000_000 + worker
            )
            registry.attach_mirror(writer)
            registry.set("rss_kb", value)
            writer.close()
            time.sleep(0.01)  # distinct write timestamps
        snaps = load_snapshots(tmp_path, live_only=False)
        (gauge,) = merge_snapshots(snaps)
        assert gauge["value"] == 2.0  # the newer, not the larger, value
        assert gauge["workers"] == 2

    def test_concurrent_load_sum_matches(self, tmp_path):
        """Fleet total must equal the per-worker sum while writers are
        bumping concurrently — the acceptance check for no lost updates."""
        n_workers, per_thread = 4, 500
        registries = []
        writers = []
        for worker in range(n_workers):
            registry = MetricsRegistry()
            writer = MetricsFileWriter(
                tmp_path, worker=worker, pid=10_000_000 + worker
            )
            registry.attach_mirror(writer)
            registries.append(registry)
            writers.append(writer)

        def bump(registry):
            for _ in range(per_thread):
                registry.inc("hits_total")

        threads = [
            threading.Thread(target=bump, args=(registry,))
            for registry in registries
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for writer in writers:
            writer.close()
        snaps = load_snapshots(tmp_path, live_only=False)
        per_worker = sum(s.value("hits_total") for s in snaps)
        (merged,) = merge_snapshots(snaps)
        assert merged["value"] == per_worker == n_workers * 2 * per_thread
