"""The inference engine behind the unified prediction API.

:class:`Engine` owns three things:

* a :class:`~repro.serve.registry.ModelRegistry` of warm-loaded models
  (every family answers through the same adapter contract),
* a :class:`~repro.serve.cache.GraphCache` so repeated predictions on the
  same circuit skip ``build_graph`` + ``FeatureScaler`` work entirely, and
* a lazily started :class:`~repro.serve.executor.BatchExecutor` that
  groups concurrent ``predict_batch`` items into merged-graph forward
  passes (disjoint-component batching — bit-identical to serial results).

``Engine.predict`` runs synchronously in the calling thread;
``Engine.predict_batch`` fans out through the executor and preserves
request order.  Both return :class:`~repro.api.types.PredictionResult`.

An engine answers one group at a time, whichever thread calls it.  Two
forwards running at once in one process only pass the GIL back and forth
at every numpy call that releases it (hundreds per request), and each
hand-off wakes the other thread; serialised, the same requests cost less
CPU and their latency depends far less on how fast the host wakes
threads.  Processes, not threads, are the unit of parallel serving
(:mod:`repro.serve.pool`).
"""

from __future__ import annotations

import copy
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro import obs
from repro.api.adapters import GraphWork, make_adapter
from repro.nn import precision
from repro.api.types import (
    ModelProvenance,
    PredictionRequest,
    PredictionResult,
    PredictionTiming,
    TargetPrediction,
    target_unit,
)
from repro.errors import ApiError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.cache import GraphCache
    from repro.serve.executor import BatchExecutor
    from repro.serve.registry import ModelRegistry, RegistryEntry


@dataclass(frozen=True)
class EngineConfig:
    """Engine sizing knobs (cache capacity + micro-batching executor).

    ``dtype`` is the *serving* compute precision: model weights are cast
    to it once, when the engine is built (a saved model is loaded at it;
    an in-memory model at another dtype is served as a cast copy), and
    every forward runs under it.  The default is
    ``float32`` — roughly half the memory traffic of float64 at a ~1e-6
    relative output tolerance (see ``docs/performance.md``); pass
    ``"float64"`` to recover the historical bit-exact behaviour.
    """

    cache_size: int = 256
    max_batch: int = 16
    queue_depth: int = 128
    workers: int = 2
    timeout_s: float | None = None
    dtype: str = "float32"


def _target_kind(target: str) -> str:
    from repro.data.targets import target_by_name

    try:
        return target_by_name(target).kind
    except Exception:
        return "node"


class Engine:
    """Serve predictions for every registered model through one contract."""

    def __init__(
        self,
        models,
        *,
        config: EngineConfig | None = None,
        cache: "GraphCache | None" = None,
    ):
        from repro.serve.cache import GraphCache

        self.config = config or EngineConfig()
        self._dtype = precision.resolve_dtype(self.config.dtype)
        # loading under the serving policy casts checkpoint weights to the
        # serving dtype once, instead of on every forward
        with precision.compute_dtype(self._dtype):
            self.registry = _at_dtype(_coerce_registry(models), self._dtype)
        # explicit None test: a freshly injected cache is empty and an
        # empty GraphCache is falsy through __len__
        self.cache = (
            cache
            if cache is not None
            else GraphCache(max_entries=self.config.cache_size)
        )
        self._executor: BatchExecutor | None = None
        self._executor_lock = threading.Lock()
        self._group_lock = threading.Lock()  # one group at a time

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def predict(
        self,
        request,
        *,
        targets: Iterable[str] | None = None,
        model: str | None = None,
        use_cache: bool = True,
    ) -> PredictionResult:
        """Predict for one circuit, synchronously in the calling thread.

        *request* may be a :class:`PredictionRequest` or anything
        :func:`coerce_request` understands (a ``Circuit``, a dataset
        record, a netlist path or raw netlist text).
        """
        req = coerce_request(
            request, targets=targets, model=model, use_cache=use_cache
        )
        result = self._predict_group([req])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def predict_batch(
        self,
        requests: Sequence,
        *,
        timeout_s: float | None = None,
    ) -> list[PredictionResult]:
        """Predict for many circuits through the micro-batching executor.

        Results come back in request order.  Raises
        :class:`~repro.errors.ApiError`, before anything is queued, when
        the batch holds more requests than the queue does (no retry could
        succeed), :class:`~repro.errors.ServeOverloadedError` when the
        queue rejects a request and :class:`~repro.errors.ServeTimeoutError`
        when one exceeds its deadline; other per-request failures re-raise
        their original exception when that result is collected.
        """
        reqs = [coerce_request(r) for r in requests]
        if not reqs:
            return []
        if len(reqs) > self.config.queue_depth:
            raise ApiError(
                f"batch of {len(reqs)} requests exceeds the serving "
                f"queue depth of {self.config.queue_depth}; split it"
            )
        executor = self._ensure_executor()
        obs.inc("serve.requests_total", len(reqs))
        futures = [
            executor.submit(
                req, timeout_s=(
                    req.options.timeout_s
                    if req.options.timeout_s is not None
                    else timeout_s
                )
            )
            for req in reqs
        ]
        results = []
        for future in futures:
            result = future.result()
            # queue wait is measured by the executor when a worker claims
            # the item; surface it on the result's timing breakdown
            wait = getattr(future, "queue_wait_s", None)
            if wait is not None and hasattr(result, "timing"):
                result.timing.queue_s = wait
            results.append(result)
        return results

    def targets_of(self, model: str | None = None) -> tuple[str, ...]:
        """Targets offered by a registered model (default model if None)."""
        return self.registry.get(model).targets

    def compute_info(self) -> dict:
        """The serving precision forwards run under."""
        return {"dtype": self._dtype.name}

    def stats(self) -> dict:
        """JSON-ready operational snapshot (the ``/metrics`` body)."""
        executor = self._executor
        return {
            "compute": self.compute_info(),
            "models": self.registry.describe(),
            "graph_cache": {
                "hits": self.cache.hits,
                "text_hits": self.cache.text_hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate(),
                "entries": len(self.cache),
                "max_entries": self.cache.max_entries,
                "max_bytes": self.cache.max_bytes,
                "bytes": self.cache.current_bytes(),
                **(
                    {"shard": self.cache.describe_shard()}
                    if hasattr(self.cache, "describe_shard")
                    else {}
                ),
            },
            "executor": {
                "started": executor is not None,
                "pending": executor.pending() if executor is not None else 0,
                "max_batch": self.config.max_batch,
                "queue_depth": self.config.queue_depth,
                "workers": self.config.workers,
            },
        }

    def close(self) -> None:
        """Shut down the executor (idempotent; the engine stays queryable
        via :meth:`predict`, which never uses the executor)."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> "BatchExecutor":
        with self._executor_lock:
            if self._executor is None:
                from repro.serve.executor import BatchExecutor

                self._executor = BatchExecutor(
                    self._predict_group,
                    max_batch=self.config.max_batch,
                    queue_depth=self.config.queue_depth,
                    workers=self.config.workers,
                    timeout_s=self.config.timeout_s,
                )
            return self._executor

    def _predict_group(
        self, requests: Sequence[PredictionRequest]
    ) -> list:
        """Answer a group of requests; failed items become Exceptions.

        Items sharing a model and target set are merged into one batched
        forward pass; the rest fall back to singleton batches.  Runs
        under the engine's serving precision (thread-local, so caller
        threads keep their own policy), one group at a time (see the
        module docstring).
        """
        with self._group_lock, precision.compute_dtype(self._dtype):
            return self._predict_group_inner(requests)

    def _predict_group_inner(
        self, requests: Sequence[PredictionRequest]
    ) -> list:
        prepared: list[tuple | Exception] = []
        for req in requests:
            t0 = time.perf_counter()
            try:
                entry = self.registry.get(req.model)
                targets = req.targets or entry.targets
                unknown = [t for t in targets if t not in entry.targets]
                if unknown:
                    raise ApiError(
                        f"model {entry.name!r} does not predict {unknown}; "
                        f"available: {sorted(entry.targets)}"
                    )
                # the cache parses the netlist only if its text index misses
                cached, hit = self.cache.lookup(
                    req, use_cache=req.options.use_cache
                )
                graph_s = time.perf_counter() - t0
                prepared.append((req, entry, tuple(targets), cached, hit, graph_s))
            except Exception as error:
                prepared.append(error)

        # group by (model entry, target set) for merged forwards
        groups: dict[tuple, list[int]] = {}
        for index, item in enumerate(prepared):
            if isinstance(item, Exception):
                continue
            _, entry, targets, _, _, _ = item
            groups.setdefault((id(entry), targets), []).append(index)

        results: list = [None] * len(prepared)
        for (_, targets), indices in groups.items():
            items = [prepared[i] for i in indices]
            entry: RegistryEntry = items[0][1]
            # identical circuits (same content hash) share one forward:
            # a batch cycling N distinct schematics costs N graph slots
            # in the merged pass, however many requests reference them
            slot_of_key: dict[str, int] = {}
            works: list[GraphWork] = []
            slots: list[int] = []
            for it in items:
                cached = it[3]
                slot = slot_of_key.get(cached.fingerprint)
                if slot is None:
                    slot = slot_of_key[cached.fingerprint] = len(works)
                    works.append(GraphWork(cached.graph, cached.inputs_for))
                slots.append(slot)
            if len(works) < len(items):
                obs.inc("api.dedup_reuse_total", len(items) - len(works))
            t0 = time.perf_counter()
            try:
                with obs.span(
                    "api.predict_group", model=entry.name, batch=len(works)
                ):
                    per_work = entry.adapter.predict_works(works, targets)
            except Exception as error:
                for i in indices:
                    results[i] = error
                continue
            per_item = [per_work[slot] for slot in slots]
            inference_s = time.perf_counter() - t0
            for it, arrays_by_target, index in zip(items, per_item, indices):
                req, entry, targets, cached, hit, graph_s = it
                predictions: dict[str, TargetPrediction] = {}
                names_of = cached.graph.node_name_of
                for target in targets:
                    ids, values = arrays_by_target[target]
                    predictions[target] = TargetPrediction(
                        target=target,
                        kind=_target_kind(target),
                        names=tuple(map(names_of.__getitem__, ids.tolist())),
                        values=values,
                        unit=target_unit(target),
                    )
                results[index] = PredictionResult(
                    circuit=req.circuit_name,
                    fingerprint=cached.fingerprint,
                    request_id=req.request_id,
                    targets=predictions,
                    provenance=ModelProvenance(
                        name=entry.name,
                        family=entry.family,
                        version=entry.version,
                        path=entry.path,
                    ),
                    timing=PredictionTiming(
                        total_s=graph_s + inference_s,
                        graph_s=graph_s,
                        inference_s=inference_s,
                        cache_hit=hit,
                        batch_size=len(works),
                    ),
                )
                obs.inc("api.predictions_total")
        for index, item in enumerate(prepared):
            if isinstance(item, Exception):
                results[index] = item
        return results


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def coerce_request(
    source,
    *,
    targets: Iterable[str] | None = None,
    model: str | None = None,
    use_cache: bool = True,
) -> PredictionRequest:
    """Build a :class:`PredictionRequest` from any supported input.

    Accepts an existing request (returned as-is when no overrides are
    given), a :class:`~repro.circuits.Circuit`, a dataset
    :class:`~repro.data.dataset.CircuitRecord`, a netlist path, or raw
    SPICE text (detected by a newline in the string).
    """
    from repro.api.types import PredictionOptions

    if isinstance(source, PredictionRequest):
        if targets is None and model is None and use_cache:
            return source
        return PredictionRequest(
            circuit=source.circuit,
            netlist_path=source.netlist_path,
            netlist_text=source.netlist_text,
            name=source.name,
            targets=tuple(targets) if targets is not None else source.targets,
            model=model if model is not None else source.model,
            options=PredictionOptions(
                use_cache=use_cache and source.options.use_cache,
                timeout_s=source.options.timeout_s,
            ),
            request_id=source.request_id,
        )
    kwargs = dict(
        targets=tuple(targets) if targets is not None else None,
        model=model,
        options=PredictionOptions(use_cache=use_cache),
    )
    if hasattr(source, "circuit") and hasattr(source, "graph"):  # record
        return PredictionRequest(circuit=source.circuit, **kwargs)
    if hasattr(source, "instances") and hasattr(source, "signal_nets"):
        return PredictionRequest(circuit=source, **kwargs)
    if isinstance(source, (str, os.PathLike)):
        text = os.fspath(source)
        if "\n" in text:
            return PredictionRequest(netlist_text=text, **kwargs)
        return PredictionRequest(netlist_path=text, **kwargs)
    raise ApiError(
        f"cannot build a PredictionRequest from {type(source).__name__}"
    )


def _coerce_registry(models) -> "ModelRegistry":
    from repro.serve.registry import ModelRegistry

    if isinstance(models, ModelRegistry):
        return models
    if isinstance(models, (str, os.PathLike)):
        return ModelRegistry.discover(models)
    registry = ModelRegistry()
    if isinstance(models, Mapping):
        for name, model in models.items():
            registry.register(name, model)
        return registry
    registry.register("default", models)
    return registry


def _parameters(model):
    """The parameters of every GNN leaf of *model* (none for baselines
    and custom adapters)."""
    from repro.serve.shm import _leaf_predictors

    for _, predictor in _leaf_predictors(model):
        if predictor.model is not None:
            yield from predictor.model.parameters()


def _at_dtype(registry: "ModelRegistry", dtype) -> "ModelRegistry":
    """*registry* with every model's weights at *dtype*.

    Returns *registry* itself when they already are (a saved model loaded
    under the serving policy, or the pool's adopted shared views).
    Otherwise returns a new registry, with the same names, paths and
    versions, that serves a cast copy of each model at another dtype;
    the caller's registry and models are left as they are.
    """
    from repro.serve.registry import ModelRegistry

    entries = list(registry.entries())
    stale = {
        entry.name for entry in entries
        if any(param.data.dtype != dtype for param in _parameters(entry.model))
    }
    if not stale:
        return registry
    served = ModelRegistry()
    for entry in entries:
        served.register(
            entry.name,
            _cast_copy(entry.model, dtype) if entry.name in stale else entry.model,
            path=entry.path,
            version=entry.version,
        )
    return served


def _cast_copy(model, dtype):
    """A deep copy of *model* whose parameters are at *dtype*.

    The copy never holds the originals' arrays: each parameter's data is
    cast straight into the copy, and gradients are not copied.
    """
    memo: dict = {}
    for param in _parameters(model):
        memo[id(param.data)] = param.data.astype(dtype)
        if param.grad is not None:
            memo[id(param.grad)] = None
    return copy.deepcopy(model, memo)


def create_engine(
    models,
    *,
    cache_size: int = 256,
    max_batch: int = 16,
    queue_depth: int = 128,
    workers: int = 2,
    timeout_s: float | None = None,
    dtype: str = "float32",
    cache=None,
) -> Engine:
    """One-call engine construction.

    *models* may be a saved-model directory/path (discovered and
    warm-loaded), a ``{name: model}`` mapping, a
    :class:`~repro.serve.registry.ModelRegistry`, or a single model object
    (registered as ``"default"``).  A pre-built
    :class:`~repro.serve.cache.GraphCache` (e.g. the pool's sharded
    variant) may be injected via *cache*; it wins over *cache_size*.
    *dtype* sets the serving compute precision (float32 by default; pass
    ``dtype="float64"`` for bit-exact parity with training).
    """
    return Engine(
        models,
        config=EngineConfig(
            cache_size=cache_size,
            max_batch=max_batch,
            queue_depth=queue_depth,
            workers=workers,
            timeout_s=timeout_s,
            dtype=dtype,
        ),
        cache=cache,
    )


def predict_one(model, source, targets: Iterable[str] | None = None) -> PredictionResult:
    """Single-shot prediction without building an engine.

    Runs the same adapter machinery as :class:`Engine`, but with a local,
    uncached graph and at the caller's ambient compute precision.  Accepts the same *source* shapes as
    :func:`coerce_request` plus a bare :class:`HeteroGraph`.
    """
    adapter = make_adapter(model)
    wanted = tuple(targets) if targets is not None else tuple(adapter.targets)
    if hasattr(source, "node_name_of"):  # a bare HeteroGraph
        graph = source
        circuit_name = getattr(source, "name", "graph")
        fingerprint = "unhashed"
    else:
        req = coerce_request(source, use_cache=False)
        circuit = req.resolve_circuit()
        from repro.serve.cache import circuit_fingerprint

        fingerprint = circuit_fingerprint(circuit)
        circuit_name = circuit.name
        from repro.graph.builder import build_graph

        graph = build_graph(circuit)
    work = GraphWork.local(graph)
    t0 = time.perf_counter()
    arrays_by_target = adapter.predict_works([work], wanted)[0]
    inference_s = time.perf_counter() - t0
    names_of = graph.node_name_of
    predictions = {
        target: TargetPrediction(
            target=target,
            kind=_target_kind(target),
            names=tuple(map(names_of.__getitem__, ids.tolist())),
            values=values,
            unit=target_unit(target),
        )
        for target, (ids, values) in arrays_by_target.items()
    }
    return PredictionResult(
        circuit=circuit_name,
        fingerprint=fingerprint,
        targets=predictions,
        provenance=ModelProvenance(
            name=type(model).__name__, family=adapter.family, version="unsaved"
        ),
        timing=PredictionTiming(
            total_s=inference_s, inference_s=inference_s, batch_size=1
        ),
    )
