"""Timing shims for the traced run, installed from outside the program.

Every layer is timed at its public entry point.  Module-level functions
are replaced at every binding site in the loaded ``repro`` modules (the
defining module, package re-exports, ``from x import y`` copies and
module-level lookup tables); methods are replaced on their class.  A
wrapper records one span per call — ``(id, parent, name, request id,
start, end, extra)`` — into an in-memory list; nothing is written until
the run ends.  :meth:`Patches.restore` puts every original callable back.

For the serve workloads ``pool_host.py`` installs the shims *before*
:class:`~repro.serve.pool.ServerPool` forks, so the worker inherits them;
the worker writes its spans to a file when its server shuts down, and the
benchmark reads them once the pool has stopped.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np

#: repro.nn.ops entry points the paragraph conv calls; each gets its own
#: span.  Any other kernel's time stays in its caller's self time.
NN_KERNELS = (
    "relu", "leaky_relu", "concat", "gather_rows", "segment_sum",
    "segment_softmax", "scatter_rows",
)


class Recorder:
    """In-memory span sink with per-thread parent stacks.

    A span's parent is the innermost open span on the same thread.  A
    thread with no open span may name a request id instead; it then
    attaches to the span registered for that request — how executor
    threads' work hangs under the HTTP handler that waits for it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.owner_pid = os.getpid()
        self.dump_dir: str | None = None
        self.open_by_rid: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, *, rid_from=None, register=False, before=None, after=None):
        """A span-recording stand-in for *fn*.

        ``rid_from(args)`` names the request a root call belongs to;
        ``register`` makes the span the cross-thread parent for that
        request while it is open; ``before(args)`` / ``after(args,
        result, token)`` compute the span's ``extra`` field.
        """
        recorder = self
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.rid = None
            if stack:
                parent, rid = stack[-1], local.rid
            elif rid_from is not None:
                rid = local.rid = rid_from(args)
                parent = recorder.open_by_rid.get(rid)
            else:
                parent = rid = local.rid = None
            sid = next(recorder._ids)
            stack.append(sid)
            if register:
                recorder.open_by_rid[rid] = sid
            token = before(args) if before is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if register:
                    recorder.open_by_rid.pop(rid, None)
            # failed calls leave no span; only completed work is attributed
            extra = after(args, result, token) if after is not None else None
            recorder.spans.append((sid, parent, name, rid, t0, t1, extra))
            return result

        return wrapper

    def dump(self) -> None:
        """Write this process's spans under ``dump_dir`` (worker side)."""
        path = os.path.join(self.dump_dir, f"spans-{os.getpid()}.pkl")
        with open(path, "wb") as handle:
            pickle.dump(self.spans, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_dumps(directory: str) -> list[tuple]:
    """Every span written by :meth:`Recorder.dump` under *directory*."""
    spans: list[tuple] = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".pkl"):
            with open(os.path.join(directory, entry), "rb") as handle:
                spans.extend(pickle.load(handle))
    return spans


class Patches:
    """Replaced attributes and how to put them back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def _set(owner, key, value) -> None:
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def attr(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def method(self, cls, name: str, make) -> None:
        """Replace ``cls.name`` by ``make(function)``, keeping its kind."""
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((cls, name, raw))
        setattr(cls, name, new)

    def function(self, fn, make) -> None:
        """Replace *fn* at every binding in loaded ``repro`` modules."""
        wrapper = make(fn)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is fn:
                    self._undo.append((module, key, fn))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for inner, item in list(value.items()):
                        if item is fn:
                            self._undo.append((value, inner, fn))
                            value[inner] = wrapper

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            self._set(owner, key, original)
        self._undo.clear()


def _nbytes(obj) -> int:
    """Bytes of the arrays a kernel argument carries (computed from shapes)."""
    data = getattr(obj, "data", obj)
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item) for item in obj)
    return 0


def _kernel_bytes(args, result, _token) -> int:
    return sum(_nbytes(arg) for arg in args) + _nbytes(result)


def _linear_bytes(args, result, _token) -> int:
    layer, x = args[0], args[1]
    params = layer.weight.data.nbytes + (
        layer.bias.data.nbytes if layer.bias is not None else 0
    )
    return _nbytes(x) + params + _nbytes(result)


def install(recorder: Recorder) -> Patches:
    """Install every layer shim; returns the handle that removes them."""
    from repro.api import adapters
    from repro.api.engine import Engine
    from repro.api.types import PredictionResult
    from repro.circuits import spice
    from repro.data import fingerprint
    from repro.flows.runtime import MergedInputsCache
    from repro.graph import builder
    from repro.models import convs, multitask
    from repro.models.encoder import NodeTypeEncoder
    from repro.models.inputs import GraphInputs
    from repro.nn import layers, loss, ops, optim
    from repro.nn.tensor import Tensor
    from repro.serve import http
    from repro.serve.cache import GraphCache

    patches = Patches()
    wrap = recorder.wrap

    def named(name, **options):
        return lambda fn: wrap(name, fn, **options)

    # -- HTTP edge ------------------------------------------------------
    patches.method(
        http._Handler, "do_POST",
        named("http.handler", rid_from=lambda a: a[0].headers.get("X-Request-ID")),
    )
    patches.attr(http, "json", SimpleNamespace(
        loads=wrap("http.decode", json.loads),
        dumps=wrap("http.encode", json.dumps),
        JSONDecodeError=json.JSONDecodeError,
    ))
    patches.function(http.request_from_json, named("http.decode"))
    patches.method(PredictionResult, "to_json_dict", named("http.encode"))

    def dump_after_shutdown(fn):
        @functools.wraps(fn)
        def shutdown(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            if os.getpid() != recorder.owner_pid and recorder.dump_dir:
                recorder.dump()
        return shutdown

    patches.method(http.PredictionServer, "shutdown", dump_after_shutdown)

    # -- API / executor -------------------------------------------------
    patches.method(Engine, "predict", named("api.engine"))
    patches.method(
        Engine, "_predict_group",
        named("api.engine", rid_from=lambda a: a[1][0].request_id if a[1] else None),
    )
    patches.method(Engine, "predict_batch", named("executor.wait", register=True))
    patches.method(adapters.MultiTargetAdapter, "predict_works", named("api.adapter"))

    # -- circuits / data / cache / graph / inputs -----------------------
    patches.function(spice.read_spice, named("circuits.parse"))
    patches.function(fingerprint.circuit_fingerprint, named("data.fingerprint"))
    patches.method(GraphCache, "lookup", named(
        "cache.lookup",
        before=lambda a: a[0].evictions,
        after=lambda a, result, before: (bool(result[1]), a[0].evictions - before),
    ))
    patches.function(builder.build_graph, named("graph.build"))
    patches.method(GraphInputs, "from_graph", named("inputs.build"))
    patches.method(GraphInputs, "merge", named("inputs.merge"))

    # -- model layers and nn kernels ------------------------------------
    patches.method(NodeTypeEncoder, "forward", named("model.encoder"))
    patches.method(convs.ParaGraphConv, "forward", named("model.conv"))
    patches.method(layers.MLP, "forward", named("model.readout"))
    patches.method(multitask.ReadoutHead, "forward", named("model.readout"))
    patches.method(layers.Linear, "forward", named("nn.linear", after=_linear_bytes))
    for kernel in NN_KERNELS:
        patches.function(
            getattr(ops, kernel), named(f"nn.{kernel}", after=_kernel_bytes)
        )

    # -- training -------------------------------------------------------
    patches.method(MergedInputsCache, "merged_target", named("train.inputs"))
    patches.method(multitask.MultiTaskModel, "embed", named("train.forward"))
    patches.function(loss.mse_loss, named("train.forward"))
    patches.method(Tensor, "backward", named("train.backward"))
    patches.method(optim.Adam, "step", named("train.optim"))
    patches.function(optim.global_grad_norm, named("train.optim"))
    return patches
