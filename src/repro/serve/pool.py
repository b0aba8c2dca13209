"""Pre-fork worker pool: multi-process serving behind one port.

One Python process cannot serve heavy traffic — the GIL caps it no
matter how fast the kernels get — so the deployment unit is a
:class:`ServerPool`: N forked worker processes, each running the full
:class:`~repro.serve.http.PredictionServer` stack over the **same**
weight bytes.

Architecture (see ``docs/serving.md``):

* **Listeners** — with ``SO_REUSEPORT`` (Linux/BSD) every worker owns its
  own listening socket bound to the same address and the kernel spreads
  accepts across them; elsewhere the parent binds once pre-fork and every
  worker accepts on the inherited listener.
* **Weights** — the parent warm-loads the :class:`ModelRegistry` once
  and gives every parameter a read-only copy of its array at the serving
  dtype *before* forking.  Workers inherit those pages copy-on-write and
  never write them, so all of them read the parent's one copy.
* **Locks** — every lock and thread-local of the serving stack comes
  from :mod:`repro.forksafe`, which makes each one free and empty in a
  forked child, so a worker starts with usable locks whatever the
  parent's other threads held at the fork.
* **Caches** — each worker keeps its own LRU
  :class:`~repro.serve.cache.GraphCache`, bounded by the pool's
  ``cache_size``/``cache_bytes``.  The kernel spreads connections by
  address, not by circuit, so any worker may see any circuit, and each
  one caches what it serves.
* **Drain / reload** — SIGTERM makes a worker stop accepting, finish
  in-flight requests, flush its :class:`BatchExecutor` and exit;
  :meth:`ServerPool.reload` detects artifact version bumps, loads a
  new weight generation, starts replacement workers and only then
  retires the old ones (zero dropped requests).

Everything is stdlib: ``os.fork``, ``socket``, ``signal``.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, replace

from repro import forksafe, obs
from repro.errors import ServeError
from repro.nn import precision
from repro.obs import mpmetrics
from repro.serve.cache import GraphCache
from repro.serve.registry import ModelRegistry, artifact_version

#: Seconds a draining worker gets before SIGKILL.
DEFAULT_DRAIN_TIMEOUT_S = 15.0
#: Seconds to wait for a forked worker's readiness handshake.
READY_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Pool configuration / worker bookkeeping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PoolConfig:
    """Sizing and behaviour knobs for a :class:`ServerPool`."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    #: per-worker engine sizing (threads = BatchExecutor workers)
    cache_size: int = 256
    cache_bytes: int | None = None
    max_batch: int = 16
    queue_depth: int = 128
    threads: int = 2
    timeout_s: float | None = None
    #: serving compute precision (weights cast to it; float32 default)
    dtype: str = "float32"
    drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S
    quiet: bool = True
    #: directory for per-worker mmap metrics files (None = auto temp dir,
    #: created by start() and removed by stop())
    metrics_dir: str | None = None
    #: structured JSON access-log path (None = no access log)
    access_log: str | None = None


@dataclass
class WorkerInfo:
    """Parent-side record of one live worker process."""

    index: int
    pid: int
    generation: int
    listener: socket.socket | None = None  # reuseport: this worker's socket


def _make_listener(host: str, port: int, *, reuseport: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(128)
    except BaseException:
        sock.close()
        raise
    return sock


def _process_rss_kb() -> int:
    """Current RSS of this process in KiB (0 when /proc is unavailable)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * (os.sysconf("SC_PAGESIZE") // 1024)
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return 0


# ----------------------------------------------------------------------
# Worker (child) side
# ----------------------------------------------------------------------
def _child_main(
    index: int,
    config: PoolConfig,
    registry: ModelRegistry,
    listener: socket.socket,
    ready_fd: int,
    generation: int,
) -> "None":  # never returns: always os._exit
    status = 0
    try:
        from repro.api.engine import Engine, EngineConfig
        from repro.serve.http import PredictionServer

        # Inherited locks are free and thread-locals empty here, whatever
        # the parent's other threads held at the fork (repro.forksafe).
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent drives shutdown
        term_early = {"hit": False}
        signal.signal(
            signal.SIGTERM, lambda *_: term_early.__setitem__("hit", True)
        )

        cache = GraphCache(
            max_entries=config.cache_size, max_bytes=config.cache_bytes
        )
        engine = Engine(
            registry,
            config=EngineConfig(
                cache_size=config.cache_size,
                max_batch=config.max_batch,
                queue_depth=config.queue_depth,
                workers=config.threads,
                timeout_s=config.timeout_s,
                dtype=config.dtype,
            ),
            cache=cache,
        )

        # Fleet telemetry: collect metrics (bounded state, no spans) and
        # stream every registry mutation into this worker's mmap file so
        # the parent / any sibling can serve the merged fleet view.
        writer = None
        if config.metrics_dir:
            obs.enable_metrics()
            writer = mpmetrics.MetricsFileWriter(
                config.metrics_dir, worker=index, generation=generation
            )
            obs.registry().attach_mirror(writer)

            def _heartbeat(started=time.monotonic()):
                while True:
                    try:
                        obs.set_gauge("proc.rss_kb", _process_rss_kb())
                        obs.set_gauge(
                            "proc.uptime_s", time.monotonic() - started
                        )
                        executor = engine._executor
                        obs.set_gauge(
                            "serve.queue_depth",
                            executor.pending() if executor is not None else 0,
                        )
                    except Exception:  # pragma: no cover - telemetry only
                        pass
                    time.sleep(1.0)

            threading.Thread(
                target=_heartbeat, name="obs-heartbeat", daemon=True
            ).start()

        access_log = None
        if config.access_log:
            from repro.obs.requestlog import AccessLog

            access_log = AccessLog(config.access_log)
        server = PredictionServer(
            engine,
            socket=listener,
            worker_id=index,
            daemon_threads=False,  # drain joins in-flight handlers
            quiet=config.quiet,
            generation=generation,
            metrics_dir=config.metrics_dir or None,
            access_log=access_log,
        )

        def _drain(signum, frame):
            # Runs on the main thread mid-serve loop: hand the (blocking)
            # stop request to a helper thread; serve_forever then returns
            # and the epilogue below finishes in-flight work and exits.
            threading.Thread(
                target=server._server.shutdown, daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _drain)
        os.write(ready_fd, f"ready {server.port} gen {generation}\n".encode())
        os.close(ready_fd)
        if not term_early["hit"]:
            server.serve_forever()
        # Drain epilogue: stop accepting (already done), join in-flight
        # handler threads, flush the BatchExecutor queue, release sockets.
        server.shutdown()
        if writer is not None:
            # graceful exit: retire this worker's metrics file so the
            # merged view never mixes a dead pid's counts back in
            obs.registry().detach_mirror()
            writer.close(unlink=True)
    except BaseException:
        status = 1
        try:  # pragma: no cover - crash reporting only
            import traceback

            traceback.print_exc()
        except Exception:
            pass
    finally:
        os._exit(status)


# ----------------------------------------------------------------------
# Pool (parent) side
# ----------------------------------------------------------------------
class ServerPool:
    """Supervisor for N forked prediction-server workers.

    ``models`` is anything :func:`repro.api.create_engine` accepts (a
    saved-model directory, a registry, a mapping, one model).  The parent
    never serves traffic itself; it owns the weights the workers inherit,
    the listeners and the worker lifecycle.  In-memory models are not
    copied: :meth:`start` replaces each of their parameters' arrays with
    a read-only copy at the serving dtype.
    """

    def __init__(self, models, *, config: PoolConfig | None = None):
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            raise ServeError("ServerPool needs os.fork (POSIX only)")
        self.config = config or PoolConfig()
        if self.config.workers < 1:
            raise ServeError("ServerPool needs at least one worker")
        self._models = models
        self.registry = None  # parent's warm copy, populated by start()
        self.generation = 0
        self._strategy = (
            "reuseport" if hasattr(socket, "SO_REUSEPORT") else "inherit"
        )
        self._shared_listener: socket.socket | None = None  # inherit mode
        self._port: int | None = None
        self._workers: list[WorkerInfo] = []
        self._lock = forksafe.Lock()
        self._started = False
        self._stopped = False
        self._owns_metrics_dir = False

    # -- properties ----------------------------------------------------
    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        if self._port is None:
            raise ServeError("pool is not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def strategy(self) -> str:
        return self._strategy

    @property
    def metrics_dir(self) -> str | None:
        """Directory holding the per-worker metrics files (after start)."""
        return self.config.metrics_dir

    def workers(self) -> list[WorkerInfo]:
        with self._lock:
            return list(self._workers)

    def pids(self) -> list[int]:
        return [worker.pid for worker in self.workers()]

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServerPool":
        """Load models, cast their weights, bind listeners, fork workers."""
        if self._started:
            return self
        self._share_weights()  # first: a refused registry leaves nothing
        if self.config.metrics_dir is None:
            auto = os.path.join(
                tempfile.gettempdir(), f"repro-obs-{os.getpid()}"
            )
            self.config = replace(self.config, metrics_dir=auto)
            self._owns_metrics_dir = True
        os.makedirs(self.config.metrics_dir, exist_ok=True)

        if self._strategy == "inherit":
            self._shared_listener = _make_listener(
                self.config.host, self.config.port, reuseport=False
            )
            # every worker wakes for each connection; the ones that lose
            # the accept must return to their serve loop (and see a drain)
            # instead of blocking in accept
            self._shared_listener.setblocking(False)
            self._port = self._shared_listener.getsockname()[1]
        else:
            # resolve an ephemeral port once; every worker rebinds it
            probe = _make_listener(
                self.config.host, self.config.port, reuseport=True
            )
            self._port = probe.getsockname()[1]
            self._first_listener: socket.socket | None = probe

        self._started = True
        for index in range(self.config.workers):
            self._spawn(index, self.generation)
        obs.set_gauge("serve.pool_workers", len(self._workers))
        return self

    def _share_weights(self) -> None:
        """Load the models and give every GNN parameter a read-only copy
        of its array at the serving dtype.

        Saved models load under the serving precision.  An in-memory
        model is not copied: its parameters' arrays are replaced, so no
        array at another dtype stays behind for the workers to inherit.
        Workers share these pages copy-on-write, and a stray write raises
        instead of giving one worker a private copy.  A reload's new
        arrays replace the old ones, which are freed with their last
        reference.
        """
        from repro.api.engine import _coerce_registry, _parameters

        dtype = precision.resolve_dtype(self.config.dtype)
        with precision.compute_dtype(dtype):
            registry = _coerce_registry(self._models)
        if not registry:
            raise ServeError("ServerPool has no models to serve")
        for entry in registry.entries():
            for param in _parameters(entry.model):
                data = param.data.astype(dtype)
                data.flags.writeable = False
                param.data = data  # staticcheck: ignore[autodiff-bypass] -- inference-only weights the workers inherit; no tape exists in serving
        self.registry = registry

    def _next_listener(self) -> tuple[socket.socket, bool]:
        """(listener, parent_closes_after_fork) for the next worker."""
        if self._strategy == "inherit":
            assert self._shared_listener is not None
            return self._shared_listener, False
        first = getattr(self, "_first_listener", None)
        if first is not None:
            self._first_listener = None
            return first, True
        return (
            _make_listener(self.config.host, self.port, reuseport=True),
            True,
        )

    def _spawn(self, index: int, generation: int) -> WorkerInfo:
        listener, close_after_fork = self._next_listener()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # -- child ------------------------------------------------
            os.close(read_fd)
            _child_main(
                index, self.config, self.registry, listener, write_fd,
                generation,
            )
            os._exit(1)  # pragma: no cover - _child_main never returns
        # -- parent ---------------------------------------------------
        os.close(write_fd)
        try:
            self._await_ready(read_fd, pid, index)
        finally:
            os.close(read_fd)
        info = WorkerInfo(
            index=index,
            pid=pid,
            generation=generation,
            listener=listener if close_after_fork else None,
        )
        if close_after_fork:
            # the child owns its copy; the parent's would only leak
            listener.close()
            info.listener = None
        with self._lock:
            self._workers.append(info)
        obs.inc("serve.pool_workers_spawned_total")
        return info

    def _await_ready(self, read_fd: int, pid: int, index: int) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(read_fd, selectors.EVENT_READ)
            while b"\n" not in buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    os.kill(pid, signal.SIGKILL)
                    raise ServeError(
                        f"worker {index} (pid {pid}) not ready within "
                        f"{READY_TIMEOUT_S:.0f}s"
                    )
                chunk = os.read(read_fd, 256)
                if not chunk:  # EOF: the child died before reporting
                    raise ServeError(
                        f"worker {index} (pid {pid}) exited during startup"
                    )
                buffer += chunk
        if not buffer.startswith(b"ready "):
            raise ServeError(
                f"worker {index} (pid {pid}) sent bad handshake {buffer!r}"
            )

    # -- supervision ---------------------------------------------------
    def poll(self, *, respawn: bool = True) -> list[int]:
        """Reap exited workers; respawn replacements unless draining.

        Returns the indices of workers that were found dead.
        """
        dead: list[WorkerInfo] = []
        with self._lock:
            for worker in list(self._workers):
                try:
                    done, _status = os.waitpid(worker.pid, os.WNOHANG)
                except ChildProcessError:  # reaped elsewhere
                    done = worker.pid
                if done:
                    self._workers.remove(worker)
                    dead.append(worker)
        for worker in dead:
            obs.inc("serve.pool_workers_died_total")
            if respawn and not self._stopped:
                self._spawn(worker.index, self.generation)
        if dead and self.config.metrics_dir:
            # a SIGKILL-ed worker leaves its metrics file behind; merge
            # already excludes dead pids, reaping keeps the dir bounded
            mpmetrics.reap_stale(
                self.config.metrics_dir, keep_pids=self.pids()
            )
        obs.set_gauge("serve.pool_workers", len(self.workers()))
        return [worker.index for worker in dead]

    def stale(self) -> bool:
        """True when any registered artifact changed on disk."""
        if self.registry is None:
            return False
        for entry in self.registry.entries():
            if entry.path is not None and os.path.exists(entry.path):
                if artifact_version(entry.path) != entry.version:
                    return True
        return False

    def reload(self, *, force: bool = False) -> bool:
        """Roll the pool onto freshly loaded artifacts.

        No-op (returns False) when nothing changed and ``force`` is not
        set.  Otherwise: load a new registry at the serving dtype, start
        replacement workers, then SIGTERM-drain the old generation.  Old
        and new workers overlap briefly, so the pool never stops
        answering.
        """
        if not self._started or self._stopped:
            raise ServeError("pool is not running")
        if not force and not self.stale():
            return False
        old_workers = self.workers()
        self.generation += 1
        self._share_weights()
        for index in range(self.config.workers):
            self._spawn(index, self.generation)
        self._retire(old_workers)
        obs.inc("serve.pool_reloads_total")
        obs.set_gauge("serve.pool_workers", len(self.workers()))
        return True

    def _retire(self, workers: list[WorkerInfo]) -> None:
        """SIGTERM-drain the given workers; SIGKILL stragglers."""
        for worker in workers:
            try:
                os.kill(worker.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + self.config.drain_timeout_s
        pending = list(workers)
        while pending and time.monotonic() < deadline:
            for worker in list(pending):
                try:
                    done, _status = os.waitpid(worker.pid, os.WNOHANG)
                except ChildProcessError:
                    done = worker.pid
                if done:
                    pending.remove(worker)
            if pending:
                time.sleep(0.02)
        for worker in pending:  # pragma: no cover - drain-timeout path
            try:
                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        with self._lock:
            for worker in workers:
                if worker in self._workers:
                    self._workers.remove(worker)

    def stop(self) -> None:
        """Drain every worker and release all pool resources (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self._retire(self.workers())
        if self._shared_listener is not None:
            self._shared_listener.close()
            self._shared_listener = None
        first = getattr(self, "_first_listener", None)
        if first is not None:
            first.close()
            self._first_listener = None
        directory = self.config.metrics_dir
        if directory and os.path.isdir(directory):
            # every worker has exited; drop leftover files (crashed
            # workers), and the directory itself when we created it
            mpmetrics.reap_stale(directory)
            if self._owns_metrics_dir:
                try:
                    os.rmdir(directory)
                except OSError:  # non-empty (foreign files): leave it
                    pass
        obs.set_gauge("serve.pool_workers", 0)

    def __enter__(self) -> "ServerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- blocking supervisor loop (the CLI path) -----------------------
    def run_forever(self, *, poll_interval_s: float = 0.5) -> None:
        """Supervise until SIGTERM/SIGINT; SIGHUP triggers a reload check.

        Installs signal handlers, so call it from the main thread only.
        """
        flags = {"stop": False, "hup": False}
        previous = {
            signal.SIGTERM: signal.signal(
                signal.SIGTERM, lambda *_: flags.__setitem__("stop", True)
            ),
            signal.SIGINT: signal.signal(
                signal.SIGINT, lambda *_: flags.__setitem__("stop", True)
            ),
            signal.SIGHUP: signal.signal(
                signal.SIGHUP, lambda *_: flags.__setitem__("hup", True)
            ),
        }
        try:
            while not flags["stop"]:
                if flags["hup"]:
                    flags["hup"] = False
                    self.reload()
                self.poll()
                time.sleep(poll_interval_s)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.stop()


def create_pool(
    models,
    *,
    workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    **knobs,
) -> ServerPool:
    """One-call pool construction mirroring :func:`repro.api.create_engine`."""
    config = PoolConfig(workers=workers, host=host, port=port)
    if knobs:
        config = replace(config, **knobs)
    return ServerPool(models, config=config)
