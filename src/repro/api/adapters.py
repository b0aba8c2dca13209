"""Model-family adapters: one prediction contract over four model shapes.

The engine never touches a concrete model class; it talks to a
:class:`ModelAdapter`, which turns a batch of prepared graphs into
per-target ``(ids, values)`` arrays.  Adapters exist for every family:

* :class:`PredictorAdapter` — a single :class:`TargetPredictor` with any
  number of heads; batches by merging the cached per-graph inputs into one
  disjoint forward pass (:meth:`GraphInputs.merge`), which is where the
  serving throughput comes from.
* :class:`MultiTargetAdapter` — a :class:`MultiTargetModel`; one batched
  forward per distinct predictor behind the requested targets, all on
  one merge of the graphs.
* :class:`EnsembleAdapter` — the §IV :class:`CapacitanceEnsemble`; one
  batched forward per range member (again on one merge), then
  Algorithm 2 per circuit.
* :class:`BaselineAdapter` — classical baselines (per-graph features, no
  merged forward).

The three GNN families share one batched forward (:func:`_forward`), in
which the same-shape ParaGraph trunks of a call run as one
:class:`~repro.models.stack.TrunkStack` pass.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import numpy as np

from repro import forksafe, obs
from repro.errors import ApiError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.normalize import FeatureScaler
    from repro.graph.hetero import HeteroGraph
    from repro.models.inputs import GraphInputs
    from repro.models.stack import TrunkStack
    from repro.models.trainer import TargetPredictor

#: (ids, values) pair an adapter produces per target per graph.
Arrays = tuple[np.ndarray, np.ndarray]


class GraphWork:
    """One prepared circuit: its graph plus a scaled-inputs supplier.

    ``inputs_for`` memoises per feature scaler (backed by the engine's
    :class:`~repro.serve.cache.GraphCache` entry, or a local dict for
    uncached one-shot predictions).
    """

    __slots__ = ("graph", "inputs_for")

    def __init__(
        self,
        graph: "HeteroGraph",
        inputs_for: "Callable[[FeatureScaler], GraphInputs]",
    ):
        self.graph = graph
        self.inputs_for = inputs_for

    @classmethod
    def local(cls, graph: "HeteroGraph") -> "GraphWork":
        """A work item with its own (uncached) per-scaler inputs memo."""
        memo: dict[int, GraphInputs] = {}

        def inputs_for(scaler):
            inputs = memo.get(id(scaler))
            if inputs is None:
                from repro.models.inputs import GraphInputs

                inputs = memo[id(scaler)] = GraphInputs.from_graph(graph, scaler)
            return inputs

        return cls(graph, inputs_for)


class ModelAdapter(Protocol):
    """What the engine requires of any servable model."""

    family: str

    @property
    def targets(self) -> tuple[str, ...]: ...

    def predict_works(
        self, works: Sequence[GraphWork], targets: Sequence[str]
    ) -> list[dict[str, Arrays]]: ...


def _merged(
    works: Sequence[GraphWork], scaler: "FeatureScaler", batches: dict
) -> "tuple[GraphInputs, Sequence[int]]":
    """The works' inputs under *scaler* as one disjoint batch, with offsets.

    *batches* memoises per scaler fingerprint for one ``predict_works``
    call: the predictors behind a multi-target model or an ensemble hold
    separate scaler objects of equal content, so they share one merge
    and the plans it builds lazily.
    """
    from repro.data.fingerprint import scaler_fingerprint
    from repro.models.inputs import GraphInputs

    key = scaler_fingerprint(scaler)
    batch = batches.get(key)
    if batch is None:
        if len(works) == 1:
            batch = works[0].inputs_for(scaler), [0]
        else:
            batch = GraphInputs.merge([work.inputs_for(scaler) for work in works])
            obs.observe("api.forward_batch_size", len(works))
        batches[key] = batch
    return batch


def _forward(
    jobs: "Sequence[tuple[TargetPredictor, Sequence[str]]]",
    works: Sequence[GraphWork],
    owner,
    predictors: "Sequence[TargetPredictor]",
) -> list[list[dict[str, Arrays]]]:
    """Every predictor of a call on every graph: ``out[j][k]`` holds the
    targets of ``jobs[j]`` (a fitted predictor and the targets asked of
    it) for graph ``k``.  *owner* is the served model and *predictors*
    all of its predictors.

    The graphs are merged into one disjoint-component batch per scaler
    fingerprint (:func:`_merged`).  ParaGraph trunks of one shape that
    share a scaler run as one :class:`~repro.models.stack.TrunkStack`
    pass, kept with *owner* (:func:`_stack`); any other trunk runs its
    taped forward under ``no_grad``.  Either way each trunk's embeddings
    are those of its own forward, bit for bit.  The readout MLP runs per
    graph on exactly the rows the single-graph path would see (BLAS
    matvec kernels are strongly row-count dependent, so a merged readout
    would drift in the last ulp).  The conv-stack GEMMs can still differ
    from the serial pass by one ulp for some merged row counts, so
    split-back outputs agree with serial prediction to within
    floating-point roundoff rather than bitwise.
    """
    from repro.data.fingerprint import scaler_fingerprint
    from repro.models.stack import stack_key
    from repro.nn import Tensor, no_grad

    batches: dict = {}
    out: list = [None] * len(jobs)
    specs = [[predictor._spec(t) for t in targets] for predictor, targets in jobs]
    groups: dict[tuple, list[int]] = {}
    with no_grad():
        for j, (predictor, _) in enumerate(jobs):
            trunk = predictor._require_fit().trunk
            key = stack_key(trunk)
            if key is not None:
                fingerprint = scaler_fingerprint(predictor._scaler)
                groups.setdefault((fingerprint, key), []).append(j)
                continue
            inputs, offsets = _merged(works, predictor._scaler, batches)
            tag = predictor.tag
            with obs.span("api.batched_forward", batch=len(works), target=tag):
                z = trunk(inputs)
                out[j] = _heads(predictor, specs[j], z, works, offsets)
        for group in groups.values():
            group.sort(key=lambda j: id(jobs[j][0].model.trunk))
            inputs, offsets = _merged(works, jobs[group[0]][0]._scaler, batches)
            trunks = [jobs[j][0].model.trunk for j in group]
            stack = _stack(owner, predictors, trunks)
            with obs.span("api.batched_forward", batch=len(works), models=len(group)):
                z = stack(inputs)
                for m, j in enumerate(group):
                    z_m = Tensor(z[:, m])
                    out[j] = _heads(jobs[j][0], specs[j], z_m, works, offsets)
    return out


def _heads(predictor, specs, z, works, offsets) -> list[dict[str, Arrays]]:
    """The requested heads of one predictor, per graph, in SI units."""
    heads = predictor.model.heads
    out: list[dict[str, Arrays]] = []
    for work, offset in zip(works, offsets):
        slot: dict[str, Arrays] = {}
        for spec in specs:
            ids = spec.node_ids(work.graph)
            scaled = heads[spec.name](z, ids + offset)
            slot[spec.name] = (ids, predictor._to_si(spec.name, scaled.numpy().ravel()))
        out.append(slot)
    return out


#: id(model) -> (byte budget, {group of trunk ids: stack}), the least
#: recently used group first.  An entry lives exactly as long as its
#: model (a finalizer drops it), so every adapter of one model (the
#: registry's, and the fresh one of each ``predict_one`` call) shares its
#: stacks, and a dropped model's trunks are not kept alive here.
_stacks: dict[int, tuple[int, OrderedDict]] = {}
#: A leaf lock, taken inside ``Engine._group_lock``.  Reentrant because
#: the finalizer may run, from garbage collection, in a thread that
#: already holds it.
_stacks_lock = forksafe.RLock()


def _stack(owner, predictors, trunks) -> "TrunkStack":
    """The stack of *trunks*, one group of *owner*'s same-shape trunks.

    Built on the group's first request and reused by every adapter of
    *owner* (the stack rebuilds its weight stacks when the weights
    change), so a CAP-only request builds only CAP's.  Each group holds
    a copy of its trunks' weights, so *owner* keeps its most recently
    used groups while they hold at most twice the bytes of its trunks
    (those of *predictors*, all of its predictors), and always keeps the
    group asked for.
    """
    from repro.models.stack import TrunkStack, stack_key, weight_bytes

    key = tuple(map(id, trunks))
    with _stacks_lock:
        entry = _stacks.get(id(owner))
        if entry is None:
            fitted = [p.model.trunk for p in predictors if p.model is not None]
            own = {id(t): t for t in fitted if stack_key(t) is not None}
            budget = 2 * weight_bytes(own.values())
            entry = _stacks[id(owner)] = (budget, OrderedDict())
            weakref.finalize(owner, _forget_stacks, id(owner))
        budget, groups = entry
        stack = groups.pop(key, None) or TrunkStack(trunks)
        groups[key] = stack
        held = sum(kept.nbytes for kept in groups.values())
        while held > budget and len(groups) > 1:
            held -= groups.popitem(last=False)[1].nbytes
    return stack


def _forget_stacks(owner_id: int) -> None:
    with _stacks_lock:
        _stacks.pop(owner_id, None)


class PredictorAdapter:
    """A single :class:`~repro.models.TargetPredictor`, one head or many.

    One trunk pass serves every requested head per merged batch — the
    serving-side payoff of shared-trunk training.
    """

    family = "predictor"

    def __init__(self, predictor):
        self.predictor = predictor

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(sorted(self.predictor.target_names))

    def predict_works(
        self, works: Sequence[GraphWork], targets: Sequence[str]
    ) -> list[dict[str, Arrays]]:
        _check_targets(targets, self.targets)
        predictors = [self.predictor]
        jobs = [(self.predictor, targets)]
        return _forward(jobs, works, self.predictor, predictors)[0]


class MultiTargetAdapter:
    """A :class:`~repro.flows.MultiTargetModel` bundle of predictors.

    Targets answered by the same predictor share one forward, every
    forward of one call shares one merge of the graphs, and the
    predictors' same-shape ParaGraph trunks run as one stack.
    """

    family = "multi_target"

    def __init__(self, model):
        self.model = model

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(sorted(self.model.predictors))

    def predict_works(
        self, works: Sequence[GraphWork], targets: Sequence[str]
    ) -> list[dict[str, Arrays]]:
        _check_targets(targets, self.targets)
        jobs: dict[int, tuple[object, list[str]]] = {}
        for target in targets:
            predictor = self.model.predictors[target]
            jobs.setdefault(id(predictor), (predictor, []))[1].append(target)
        out: list[dict[str, Arrays]] = [{} for _ in works]
        predictors = list(self.model.predictors.values())
        for per_work in _forward(list(jobs.values()), works, self.model, predictors):
            for slot, arrays in zip(out, per_work):
                slot.update(arrays)
        return out


class EnsembleAdapter:
    """The §IV :class:`~repro.ensemble.CapacitanceEnsemble` (CAP only).

    The one place Algorithm 2 is applied and counted: every member's CAP
    head runs through :func:`_forward`, then each graph's member
    predictions are combined (``ensemble.predictions_total`` counts the
    combined nets, ``ensemble.range_selected`` the member each one kept).
    """

    family = "ensemble"

    def __init__(self, ensemble):
        self.ensemble = ensemble

    @property
    def targets(self) -> tuple[str, ...]:
        return ("CAP",)

    def predict_works(
        self, works: Sequence[GraphWork], targets: Sequence[str]
    ) -> list[dict[str, Arrays]]:
        import math

        from repro.ensemble.ensemble import combine_with_sources
        from repro.errors import ModelError

        _check_targets(targets, self.targets)
        members = self.ensemble.models
        if not members:
            raise ModelError("ensemble has no models")
        predictors = [member.predictor for member in members]
        per_member: list[list[Arrays]] = [
            [slot["CAP"] for slot in per_work]
            for per_work in _forward(
                [(predictor, ("CAP",)) for predictor in predictors],
                works,
                self.ensemble,
                predictors,
            )
        ]
        max_vs = [member.max_v for member in members]
        out: list[dict[str, Arrays]] = []
        for k in range(len(works)):
            ids_ref = per_member[0][k][0]
            predictions = []
            for m, member_rows in enumerate(per_member):
                ids, values = member_rows[k]
                if not np.array_equal(ids, ids_ref):
                    raise ModelError("ensemble members disagree on node ids")
                predictions.append(values)
            combined, sources = combine_with_sources(predictions, max_vs)
            obs.inc("ensemble.predictions_total", len(combined))
            if obs.is_enabled():
                counts = np.bincount(sources, minlength=len(members))
                for member, count in zip(members, counts):
                    if count:
                        label = (
                            "inf" if math.isinf(member.max_v)
                            else f"{member.max_v:g}"
                        )
                        obs.inc(
                            "ensemble.range_selected", int(count), max_v=label
                        )
            out.append({"CAP": (ids_ref, combined)})
        return out


class BaselineAdapter:
    """A classical :class:`~repro.models.BaselinePredictor` (XGB / linear)."""

    family = "baseline"

    def __init__(self, baseline):
        self.baseline = baseline

    @property
    def targets(self) -> tuple[str, ...]:
        return (self.baseline.spec.name,)

    def predict_works(
        self, works: Sequence[GraphWork], targets: Sequence[str]
    ) -> list[dict[str, Arrays]]:
        (target,) = self.targets
        _check_targets(targets, self.targets)
        return [
            {target: self.baseline.predict_graph(work.graph)} for work in works
        ]


def _check_targets(requested: Sequence[str], available: Sequence[str]) -> None:
    unknown = [t for t in requested if t not in available]
    if unknown:
        raise ApiError(
            f"model does not predict {unknown}; available: {sorted(available)}"
        )


def make_adapter(model) -> ModelAdapter:
    """Wrap any supported model family in its adapter.

    Accepts an already-wrapped adapter unchanged, so callers can register
    custom adapters directly.
    """
    from repro.ensemble.ensemble import CapacitanceEnsemble
    from repro.flows.training import MultiTargetModel
    from repro.models.baselines import BaselinePredictor
    from repro.models.trainer import TargetPredictor

    if isinstance(model, TargetPredictor):
        return PredictorAdapter(model)
    if isinstance(model, MultiTargetModel):
        return MultiTargetAdapter(model)
    if isinstance(model, CapacitanceEnsemble):
        return EnsembleAdapter(model)
    if isinstance(model, BaselinePredictor):
        return BaselineAdapter(model)
    if hasattr(model, "predict_works") and hasattr(model, "targets"):
        return model  # already an adapter
    raise ApiError(
        f"cannot serve a {type(model).__name__}; expected TargetPredictor, "
        "MultiTargetModel, CapacitanceEnsemble, BaselinePredictor or a "
        "ModelAdapter"
    )
