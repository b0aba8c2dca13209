"""A forked child finds every ``repro.forksafe`` lock free.

``ServerPool`` forks its workers while other threads of the parent may
hold any lock of the serving stack; the factory's at-fork hook must make
each of them usable in the child.
"""

import gc
import os
import signal
import threading
import time

from repro import forksafe, obs


def _exit_code(pid: int, timeout_s: float = 30.0) -> int:
    """The child's exit code; a child still running at the deadline is
    killed and reported as -1 (a deadlocked child must fail the test,
    not hang it)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.02)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return -1


def test_fork_with_every_factory_lock_held(api_multi_model, tiny_bundle, tmp_path):
    from repro.api import adapters, create_engine
    from repro.obs.mpmetrics import MetricsFileWriter
    from repro.obs.requestlog import AccessLog

    circuit = tiny_bundle.records("test")[0].circuit
    engine = create_engine({"suite": api_multi_model}, dtype="float64", workers=1)
    writer = MetricsFileWriter(tmp_path, worker=0)
    access_log = AccessLog(str(tmp_path / "access.jsonl"))
    try:
        engine.predict(circuit)  # builds the suite's stack and a cache entry
        assert id(api_multi_model) in adapters._stacks
        (entry,) = engine.cache._entries.values()
        named = {
            "adapters._stacks_lock": adapters._stacks_lock,
            "ModelRegistry._lock": engine.registry._lock,
            "Engine._group_lock": engine._group_lock,
            "Engine._executor_lock": engine._executor_lock,
            "GraphCache._lock": engine.cache._lock,
            "CachedGraph._lock": entry._lock,
            "Tracer._lock": obs.tracer()._lock,
            "MetricsRegistry._lock": obs.registry()._lock,
            "MetricsFileWriter._lock": writer._lock,
            "AccessLog._lock": access_log._lock,
        }
        assert [name for name, lock in named.items() if lock not in forksafe._locks] == []

        locks = list(forksafe._locks)
        held: list = []
        holding, release = threading.Event(), threading.Event()

        def hold():
            for lock in locks:
                if lock.acquire(timeout=5.0):
                    held.append(lock)
            holding.set()
            release.wait()
            for lock in reversed(held):
                lock.release()

        holder = threading.Thread(target=hold, daemon=True)
        # while the helper holds every lock, a collection could run a
        # finalizer that takes one (``adapters._forget_stacks``) on this
        # thread and block it
        gc.disable()
        holder.start()
        try:
            assert holding.wait(30.0)
            assert all(any(lock is h for h in held) for lock in named.values())
            pid = os.fork()
            if pid == 0:  # the child: every lock must be free
                code = 1
                try:
                    code = 0 if all(lock.acquire(timeout=1.0) for lock in held) else 1
                finally:
                    os._exit(code)
            code = _exit_code(pid)
        finally:
            release.set()
            holder.join(30.0)
            gc.enable()
        assert not holder.is_alive()
        assert code == 0
    finally:
        engine.close()
        writer.close(unlink=True)
        access_log.close()
