"""Locks and thread-locals that a forked child inherits in a usable state.

``ServerPool`` forks its workers from a parent whose other threads may
hold a lock at that moment.  Those threads do not exist in the child, so
an inherited held lock would never be released there; and the forking
thread's ``threading.local`` slot survives the fork with whatever it
held (the tracer's open-span stack, for one).  Every lock and
thread-local of ``repro.serve``, ``repro.obs`` and ``repro.api`` is
therefore built here: each factory returns the plain ``threading``
object and records it, and one ``os.register_at_fork`` hook makes every
recorded lock free and every recorded thread-local empty in the child,
as CPython's ``logging`` does for its handler locks.

One condition: never call ``os.fork()`` while the forking thread holds a
lock from this module.  The child would find it free, and the forking
thread's own later release would fail there.

Imports nothing from ``repro``, so any module may build its locks here.
"""

from __future__ import annotations

import os
import threading
import weakref

_locks: "weakref.WeakSet" = weakref.WeakSet()
_locals: "weakref.WeakSet" = weakref.WeakSet()


def Lock() -> threading.Lock:  # noqa: N802 - mirrors threading.Lock
    """A ``threading.Lock`` that is free in a forked child."""
    lock = threading.Lock()
    _locks.add(lock)
    return lock


def RLock() -> threading.RLock:  # noqa: N802 - mirrors threading.RLock
    """A ``threading.RLock`` that is free in a forked child."""
    lock = threading.RLock()
    _locks.add(lock)
    return lock


def Condition() -> threading.Condition:  # noqa: N802 - mirrors threading.Condition
    """A ``threading.Condition`` that is free, with no waiters, in a
    forked child."""
    condition = threading.Condition()
    _locks.add(condition)
    return condition


def local() -> threading.local:
    """A ``threading.local`` whose slots are all empty in a forked child."""
    slot = threading.local()
    _locals.add(slot)
    return slot


def _after_fork_in_child() -> None:
    for lock in list(_locks):
        lock._at_fork_reinit()
    for slot in list(_locals):
        slot.__dict__.clear()


os.register_at_fork(after_in_child=_after_fork_in_child)
