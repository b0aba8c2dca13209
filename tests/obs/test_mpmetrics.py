"""Multiprocess metrics files: writer/reader roundtrip, crash tolerance,
staleness filtering, reaping, and the fleet merge."""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry
from repro.obs.mpmetrics import (
    MetricsFileWriter,
    load_snapshots,
    merge_snapshots,
    metrics_file_name,
    read_metrics_file,
    reap_stale,
)


def published(directory, **kwargs):
    """A registry and a writer that has published it once."""
    registry = MetricsRegistry()
    writer = MetricsFileWriter(directory, **kwargs)
    writer.publish(registry)
    return registry, writer


def dead_pid():
    """A pid guaranteed dead: spawn a child and reap it."""
    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


class TestRoundtrip:
    def test_counter_gauge_histogram_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        writer = MetricsFileWriter(tmp_path, worker=3, generation=2)
        registry.inc("requests_total", 5, route="/predict")
        registry.set("queue_depth", 7.0)
        for v in (0.1, 0.2, 0.9):
            registry.observe("latency_seconds", v, buckets=(0.5, math.inf))
        writer.publish(registry)
        writer.close()

        snapshot = read_metrics_file(writer.path)
        assert snapshot.pid == os.getpid()
        assert snapshot.worker == 3
        assert snapshot.generation == 2
        assert snapshot.alive
        assert snapshot.created_ts <= snapshot.published_ts
        assert snapshot.rows == registry.snapshot()

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

    def test_republish_replaces(self, tmp_path):
        registry, writer = published(tmp_path)
        for _ in range(10):
            registry.inc("ticks_total")
        assert read_metrics_file(writer.path).rows == []
        writer.publish(registry)
        snapshot = read_metrics_file(writer.path)
        assert snapshot.value("ticks_total") == 10.0
        assert len(snapshot.rows) == 1
        assert os.listdir(tmp_path) == [os.path.basename(writer.path)]
        writer.close()

    def test_close_unlink_removes_file(self, tmp_path):
        registry, writer = published(tmp_path)
        path = writer.path
        writer.close(unlink=True)
        assert not os.path.exists(path)
        writer.publish(registry)  # a closed writer publishes nothing
        assert not os.path.exists(path)

    def test_file_name_carries_pid_and_generation(self, tmp_path):
        writer = MetricsFileWriter(tmp_path, generation=7)
        assert os.path.basename(writer.path) == metrics_file_name(
            os.getpid(), 7
        )
        writer.close()


class TestCrashTolerance:
    def test_sigkilled_child_file_remains_readable(self, tmp_path):
        code = (
            "import sys\n"
            "from repro.obs.metrics import MetricsRegistry\n"
            "from repro.obs.mpmetrics import MetricsFileWriter\n"
            "registry = MetricsRegistry()\n"
            "writer = MetricsFileWriter(sys.argv[1], worker=0, generation=1)\n"
            "registry.inc('spin_total')\n"
            "writer.publish(registry)\n"  # one finished publish before ready
            "print('ready', flush=True)\n"
            "while True:\n"
            "    registry.inc('spin_total')\n"
            "    writer.publish(registry)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            ["python", "-c", code, str(tmp_path)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            time.sleep(0.2)  # let it spin through many publishes
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
                proc.wait()
        path = os.path.join(tmp_path, metrics_file_name(proc.pid, 1))
        snapshot = read_metrics_file(path)
        assert snapshot.value("spin_total") >= 1.0
        assert not snapshot.alive

    def test_killed_publish_tmp_never_shadows_and_is_reaped(self, tmp_path):
        """A publish killed mid-write leaves a partial ``.tmp`` beside the
        last whole snapshot: readers see the snapshot, reaping takes both."""
        registry = MetricsRegistry()
        writer = MetricsFileWriter(tmp_path, worker=1, pid=dead_pid())
        registry.inc("requests_total", 9)
        writer.publish(registry)
        registry.inc("requests_total")
        with open(writer.path + ".tmp", "w") as handle:
            handle.write(json.dumps({"pid": writer.pid, "rows": []})[:12])
        (snapshot,) = load_snapshots(tmp_path, live_only=False)
        assert snapshot.path == writer.path
        assert snapshot.value("requests_total") == 9.0
        removed = reap_stale(tmp_path)
        assert sorted(removed) == [writer.path, writer.path + ".tmp"]
        assert os.listdir(tmp_path) == []

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
        _, live = published(tmp_path, worker=0)
        _, stale = published(tmp_path, worker=1, pid=dead_pid())
        live_snaps = load_snapshots(tmp_path)
        assert [s.pid for s in live_snaps] == [os.getpid()]
        all_snaps = load_snapshots(tmp_path, live_only=False)
        assert len(all_snaps) == 2
        live.close()

    def test_unreadable_debris_skipped(self, tmp_path):
        (tmp_path / "worker-9-gen0.json").write_bytes(b"garbage")
        (tmp_path / "notes.txt").write_text("ignored")
        _, writer = published(tmp_path)
        # a whole snapshot under a temp name is still not published
        with open(writer.path) as whole:
            (tmp_path / "worker-1-gen0.json.tmp").write_text(whole.read())
        assert [s.path for s in load_snapshots(tmp_path)] == [writer.path]
        writer.close()

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_snapshots(tmp_path / "nope") == []


class TestReap:
    def test_reaps_dead_keeps_live_and_kept(self, tmp_path):
        _, live = published(tmp_path, worker=0)
        _, dead = published(tmp_path, worker=1, pid=dead_pid())
        dead_tmp = dead.path + ".tmp"
        with open(dead_tmp, "w") as handle:
            handle.write("{")  # a publish killed mid-write
        live_tmp = live.path + ".tmp"
        with open(live_tmp, "w") as handle:
            handle.write("{")  # a publish in progress
        kept_pid = dead_pid()
        _, kept = published(tmp_path, worker=2, pid=kept_pid)
        (tmp_path / "notes.txt").write_text("not ours")
        removed = reap_stale(tmp_path, keep_pids=(kept_pid,))
        assert sorted(removed) == [dead.path, dead_tmp]
        assert os.path.exists(live.path) and os.path.exists(live_tmp)
        assert os.path.exists(kept.path)
        assert os.path.exists(tmp_path / "notes.txt")
        live.close()


class TestMerge:
    def test_merge_counters_equal_sum(self, tmp_path):
        total = 0
        for worker in range(3):
            registry = MetricsRegistry()
            writer = MetricsFileWriter(
                tmp_path, worker=worker, pid=10_000_000 + worker
            )
            registry.inc("requests_total", worker + 1)
            registry.observe("latency", 0.1 * (worker + 1), buckets=(1.0, math.inf))
            writer.publish(registry)
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

    def test_gauge_from_newest_publish(self, tmp_path):
        # worker 0 publishes last, so its value wins though its file sorts
        # first and its gauge was set first
        registries, writers = [], []
        for worker, value in enumerate((2.0, 9.0)):
            registry = MetricsRegistry()
            registry.set("rss_kb", value)
            registries.append(registry)
            writers.append(MetricsFileWriter(
                tmp_path, worker=worker, pid=10_000_000 + worker
            ))
        for worker in (1, 0):
            writers[worker].publish(registries[worker])
            time.sleep(0.01)  # distinct publish timestamps
        snaps = load_snapshots(tmp_path, live_only=False)
        assert [s.worker for s in snaps] == [0, 1]
        (gauge,) = merge_snapshots(snaps)
        assert gauge["value"] == 2.0  # the newer, not the larger, value
        assert gauge["workers"] == 2

    def test_concurrent_load_sum_matches(self, tmp_path):
        """Publishes race the bumping threads: no worker's file ever moves
        back, and once the bumps end a last publish makes the fleet total
        equal the per-worker sum."""
        n_workers, per_thread = 2, 10_000
        registries = []
        writers = []
        for worker in range(n_workers):
            registries.append(MetricsRegistry())
            writers.append(MetricsFileWriter(
                tmp_path, worker=worker, pid=10_000_000 + worker
            ))
        done = threading.Event()
        regressions = []

        def bump(registry):
            for _ in range(per_thread):
                registry.inc("hits_total")

        def publish(registry, writer):
            while not done.is_set():
                writer.publish(registry)

        def watch(writer):
            seen = 0.0
            while not done.is_set():
                try:
                    value = read_metrics_file(writer.path).value("hits_total")
                except FileNotFoundError:  # before the first publish
                    continue
                if value < seen:
                    regressions.append((writer.worker, seen, value))
                seen = value

        bumpers = [
            threading.Thread(target=bump, args=(registry,))
            for registry in registries
            for _ in range(2)
        ]
        others = [
            threading.Thread(target=publish, args=pair)
            for pair in zip(registries, writers)
            for _ in range(2)
        ] + [threading.Thread(target=watch, args=(w,)) for w in writers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in bumpers + others:
                t.start()
            for t in bumpers:
                t.join(timeout=60.0)
            done.set()
            for t in others:
                t.join(timeout=60.0)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in bumpers + others)
        assert regressions == []
        for registry, writer in zip(registries, writers):
            writer.publish(registry)
            writer.close()
        snaps = load_snapshots(tmp_path, live_only=False)
        per_worker = sum(s.value("hits_total") for s in snaps)
        (merged,) = merge_snapshots(snaps)
        assert merged["value"] == per_worker == n_workers * 2 * per_thread
