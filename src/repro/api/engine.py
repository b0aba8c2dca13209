"""The inference engine behind the unified prediction API.

:class:`Engine` owns two things:

* a :class:`~repro.serve.registry.ModelRegistry` of warm-loaded models
  (every family answers through the same adapter contract), and
* a :class:`~repro.serve.cache.GraphCache` so repeated predictions on the
  same circuit skip ``build_graph`` + ``FeatureScaler`` work entirely.

``Engine.predict`` and ``Engine.predict_batch`` answer in the calling
thread, through one path: the requests are admitted against
``queue_depth``, then answered in order, in chunks of at most
``max_batch`` merged into one forward pass per model (disjoint-component
batching).  Both return :class:`~repro.api.types.PredictionResult`.

An engine answers one group at a time, whichever thread calls it.  Two
forwards running at once in one process only pass the GIL back and forth
at every numpy call that releases it (hundreds per request), and each
hand-off wakes the other thread; serialised, the same requests cost less
CPU and their latency depends far less on how fast the host wakes
threads.  The wait for the group lock is each answer's
``timing.queue_s``.  Processes, not threads, are the unit of parallel
serving (:mod:`repro.serve.pool`).

Without an engine, :func:`predict_one` answers one circuit and
:func:`collect` / :func:`evaluate` score a model over dataset records,
through the same adapters.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro import forksafe, obs
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
from repro.errors import ApiError, ServeOverloadedError, ServeTimeoutError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.registry import ModelRegistry, RegistryEntry


@dataclass(frozen=True)
class EngineConfig:
    """Engine sizing knobs.

    ``cache_size`` is the most circuits the graph cache holds;
    ``max_batch`` is the most requests merged into one group;
    ``queue_depth`` bounds the requests admitted and not yet answered (one
    more raises :class:`~repro.errors.ServeOverloadedError`); ``timeout_s``
    is the default deadline for the wait before a request runs.  The
    three sizes must be at least 1 (``ValueError`` otherwise, naming the
    field).

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
    timeout_s: float | None = None
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("cache_size", "max_batch", "queue_depth"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def _target_kind(target: str) -> str:
    from repro.data.targets import target_by_name

    try:
        return target_by_name(target).kind
    except Exception:
        return "node"


class Engine:
    """Serve predictions for every registered model through one contract."""

    def __init__(self, models, *, config: EngineConfig | None = None):
        from repro.serve.cache import GraphCache

        self.config = config or EngineConfig()
        self._dtype = precision.resolve_dtype(self.config.dtype)
        # loading under the serving policy casts checkpoint weights to the
        # serving dtype once, instead of on every forward
        with precision.compute_dtype(self._dtype):
            self.registry = _at_dtype(_coerce_registry(models), self._dtype)
        self.cache = GraphCache(max_entries=self.config.cache_size)
        self._group_lock = forksafe.Lock()  # one group at a time
        self._queue_lock = forksafe.Lock()  # guards _pending
        self._pending = 0  # requests admitted and not yet answered

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
        """Predict for one circuit, in the calling thread.

        *request* may be a :class:`PredictionRequest` or anything
        :func:`coerce_request` understands (a ``Circuit``, a dataset
        record, a netlist path or raw netlist text).  Raises
        :class:`~repro.errors.ServeOverloadedError` when the queue is full
        and :class:`~repro.errors.ServeTimeoutError` when the request's
        deadline passed before it ran.
        """
        req = coerce_request(
            request, targets=targets, model=model, use_cache=use_cache
        )
        (result,) = self._answer([req])
        if isinstance(result, Exception):
            raise result
        return result

    def predict_batch(
        self,
        requests: Sequence,
        *,
        timeout_s: float | None = None,
    ) -> list[PredictionResult]:
        """Predict for many circuits, in the calling thread.

        Results come back in request order; consecutive chunks of at most
        ``max_batch`` requests each run as one group.  *timeout_s* is the
        deadline of every request that sets none of its own.  Raises
        :class:`~repro.errors.ApiError`, before anything is admitted, when
        the batch holds more requests than the queue does (no retry could
        succeed), and :class:`~repro.errors.ServeOverloadedError` when the
        queue cannot take them all; otherwise the first failed request in
        order re-raises its own exception.
        """
        reqs = [coerce_request(r) for r in requests]
        if not reqs:
            return []
        if len(reqs) > self.config.queue_depth:
            raise ApiError(
                f"batch of {len(reqs)} requests exceeds the serving "
                f"queue depth of {self.config.queue_depth}; split it"
            )
        results = self._answer(reqs, timeout_s)
        for result in results:
            if isinstance(result, Exception):
                raise result
        return results

    def targets_of(self, model: str | None = None) -> tuple[str, ...]:
        """Targets offered by a registered model (default model if None)."""
        return self.registry.get(model).targets

    def compute_info(self) -> dict:
        """The serving precision forwards run under."""
        return {"dtype": self._dtype.name}

    def stats(self) -> dict:
        """JSON-ready operational snapshot (the ``/metrics`` body)."""
        with self._queue_lock:
            pending = self._pending
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
            },
            "queue": {
                "pending": pending,
                "max_batch": self.config.max_batch,
                "queue_depth": self.config.queue_depth,
            },
        }

    def close(self) -> None:
        """Release the graph cache's entries (idempotent; the engine stays
        usable and refills its cache on demand)."""
        self.cache.clear()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _queue(self, delta: int) -> None:
        """Add *delta* to the requests admitted and not yet answered.

        Admission (a positive *delta*) raises
        :class:`~repro.errors.ServeOverloadedError` instead when the
        count would pass ``queue_depth``.  The ``serve.queue_depth`` gauge
        is set under the lock, so it never lands out of order.
        """
        with self._queue_lock:
            pending = self._pending + delta
            full = delta > 0 and pending > self.config.queue_depth
            if not full:
                self._pending = pending
                obs.set_gauge("serve.queue_depth", pending)
        if full:
            obs.inc("serve.rejected_total", delta)
            raise ServeOverloadedError(
                f"serving queue full ({pending - delta} pending)",
                queue_depth=self.config.queue_depth,
            )

    def _answer(
        self,
        requests: Sequence[PredictionRequest],
        timeout_s: float | None = None,
    ) -> list:
        """Answer *requests* in order; failed requests become Exceptions.

        Admits them all (see :meth:`_queue`) until the call returns, and
        runs consecutive chunks of at most ``max_batch`` under the group
        lock at the serving dtype.  A request whose deadline passed while
        it waited fails with :class:`~repro.errors.ServeTimeoutError`
        without running; the deadline is its own ``options.timeout_s``,
        else *timeout_s*, else the engine's.  The others' wait is their
        ``timing.queue_s``.
        """
        obs.inc("serve.requests_total", len(requests))
        default = timeout_s if timeout_s is not None else self.config.timeout_s
        limits = [
            default if req.options.timeout_s is None else req.options.timeout_s
            for req in requests
        ]
        admitted = time.monotonic()
        self._queue(len(requests))
        results: list = []
        try:
            step = self.config.max_batch
            for start in range(0, len(requests), step):
                chunk = requests[start:start + step]
                with self._group_lock, precision.compute_dtype(self._dtype):
                    wait = time.monotonic() - admitted
                    late = [
                        limit is not None and wait > limit
                        for limit in limits[start:start + step]
                    ]
                    live = [req for req, too_late in zip(chunk, late) if not too_late]
                    outcomes = iter(self._predict_group(live) if live else ())
                for too_late in late:
                    if too_late:
                        obs.inc("serve.timeouts_total")
                        results.append(ServeTimeoutError(
                            f"request waited {wait:.3f} s, past its deadline"
                        ))
                        continue
                    result = next(outcomes)
                    if not isinstance(result, Exception):
                        result.timing.queue_s = wait
                    obs.observe("serve.queue_wait_seconds", wait)
                    results.append(result)
        finally:
            self._queue(-len(requests))
        return results

    def _predict_group(
        self, requests: Sequence[PredictionRequest]
    ) -> list:
        """Answer a group of requests; failed items become Exceptions.

        Items sharing a model and target set are merged into one batched
        forward pass; the rest fall back to singleton batches.  Called by
        :meth:`_answer` under the group lock, at the serving precision
        (thread-local, so caller threads keep their own policy).
        """
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
    """The parameters of every GNN :class:`TargetPredictor` of *model*.

    Walks each registered model family: a single predictor (one head or
    many), a multi-target suite (a predictor answering for several of
    its targets is walked once) and a capacitance ensemble.  Families
    without GNN weights (classical baselines, custom adapters) yield
    nothing.
    """
    from repro.models.trainer import TargetPredictor

    if isinstance(model, TargetPredictor):
        if model.model is not None:
            yield from model.model.parameters()
        return
    predictors = getattr(model, "predictors", None)
    if isinstance(predictors, dict):  # MultiTargetModel
        seen: set[int] = set()
        for target in sorted(predictors):
            if id(predictors[target]) not in seen:
                seen.add(id(predictors[target]))
                yield from _parameters(predictors[target])
        return
    members = getattr(model, "models", None)
    if isinstance(members, list):  # CapacitanceEnsemble
        for member in members:
            predictor = getattr(member, "predictor", None)
            if predictor is not None:
                yield from _parameters(predictor)


def _at_dtype(registry: "ModelRegistry", dtype) -> "ModelRegistry":
    """*registry* with every model's weights at *dtype*.

    Returns *registry* itself when they already are (a saved model loaded
    under the serving policy, or a pool's cast weights).
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
    workers: int | None = None,
    timeout_s: float | None = None,
    dtype: str = "float32",
) -> Engine:
    """One-call engine construction.

    *models* may be a saved-model directory/path (discovered and
    warm-loaded), a ``{name: model}`` mapping, a
    :class:`~repro.serve.registry.ModelRegistry`, or a single model object
    (registered as ``"default"``).  *cache_size* bounds the engine's
    :class:`~repro.serve.cache.GraphCache` in entries.
    *dtype* sets the serving compute precision (float32 by default; pass
    ``dtype="float64"`` for bit-exact parity with training).  *workers* is
    accepted and ignored: an engine answers in the calling thread.
    """
    return Engine(
        models,
        config=EngineConfig(
            cache_size=cache_size,
            max_batch=max_batch,
            queue_depth=queue_depth,
            timeout_s=timeout_s,
            dtype=dtype,
        ),
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


def collect(model, records, target: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(ground truth, prediction) of one target, pooled over dataset records.

    The model answers through its serving adapter (:func:`make_adapter`),
    one ``predict_works`` call per record on that record's own uncached
    graph, at the caller's ambient compute precision: evaluation runs the
    code that serves the model.  *target* may be omitted when the model
    predicts exactly one target.
    """
    from repro.data.targets import target_by_name

    adapter = make_adapter(model)
    if target is None:
        if len(adapter.targets) != 1:
            raise ApiError(
                f"model predicts {sorted(adapter.targets)}; name a target"
            )
        (target,) = adapter.targets
    spec = target_by_name(target)
    truths, predictions = [], []
    for record in records:
        truths.append(record.target_arrays(spec)[1])
        work = GraphWork.local(record.graph)
        predictions.append(adapter.predict_works([work], (target,))[0][target][1])
    return np.concatenate(truths), np.concatenate(predictions)


def evaluate(
    model, records, target: str | None = None, *, mape_eps: float = 0.0
) -> dict[str, float]:
    """Pooled R²/MAE/MAPE of one target over dataset records (:func:`collect`)."""
    from repro.analysis.metrics import summarize

    return summarize(*collect(model, records, target), mape_eps=mape_eps)
