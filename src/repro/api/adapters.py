"""Model-family adapters: one prediction contract over four model shapes.

The engine never touches a concrete model class; it talks to a
:class:`ModelAdapter`, which turns a batch of prepared graphs into
per-target ``(ids, values)`` arrays.  Adapters exist for every family:

* :class:`PredictorAdapter` — a single :class:`TargetPredictor` with any
  number of heads; batches by merging the cached per-graph inputs into one
  disjoint forward pass (:meth:`GraphInputs.merge`), which is where the
  serving throughput comes from.
* :class:`MultiTargetAdapter` — a :class:`MultiTargetModel`; one batched
  forward per distinct predictor behind the requested targets.
* :class:`EnsembleAdapter` — the §IV :class:`CapacitanceEnsemble`; one
  batched forward per range member, then Algorithm 2 per circuit.
* :class:`BaselineAdapter` — classical baselines (per-graph features, no
  merged forward).

The three GNN families share one batched forward.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import numpy as np

from repro import obs
from repro.errors import ApiError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.normalize import FeatureScaler
    from repro.graph.hetero import HeteroGraph
    from repro.models.inputs import GraphInputs

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


def _forward(
    predictor, works: Sequence[GraphWork], targets: Sequence[str]
) -> list[dict[str, Arrays]]:
    """One no-grad trunk pass of a TargetPredictor over many graphs, then
    every requested head per graph.

    Several graphs are merged into one disjoint-component batch, so the
    trunk runs once for all of them and for every head.  The readout MLP
    runs per graph on exactly the rows the single-graph path would see
    (BLAS matvec kernels are strongly row-count dependent, so a merged
    readout would drift in the last ulp).  The conv-stack GEMMs can still
    differ from the serial pass by one ulp for some merged row counts, so
    split-back outputs agree with serial prediction to within
    floating-point roundoff rather than bitwise.
    """
    from repro.models.inputs import GraphInputs
    from repro.nn import no_grad

    model = predictor._require_fit()
    scaler = predictor._scaler
    specs = [predictor._spec(target) for target in targets]
    if len(works) == 1:
        inputs, offsets = works[0].inputs_for(scaler), [0]
    else:
        inputs, offsets = GraphInputs.merge(
            [work.inputs_for(scaler) for work in works]
        )
        obs.observe("api.forward_batch_size", len(works))
    out: list[dict[str, Arrays]] = []
    with obs.span("api.batched_forward", batch=len(works), target=predictor.tag):
        with no_grad():
            z = model.trunk(inputs)
            for work, offset in zip(works, offsets):
                slot: dict[str, Arrays] = {}
                for spec in specs:
                    ids = spec.node_ids(work.graph)
                    scaled = model.heads[spec.name](z, ids + offset)
                    slot[spec.name] = (
                        ids,
                        predictor._to_si(spec.name, scaled.numpy().ravel()),
                    )
                out.append(slot)
    return out


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
        return _forward(self.predictor, works, targets)


class MultiTargetAdapter:
    """A :class:`~repro.flows.MultiTargetModel` bundle of predictors.

    Targets answered by the same predictor share one forward.
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
        groups: dict[int, tuple[object, list[str]]] = {}
        for target in targets:
            predictor = self.model.predictors[target]
            groups.setdefault(id(predictor), (predictor, []))[1].append(target)
        out: list[dict[str, Arrays]] = [{} for _ in works]
        for predictor, names in groups.values():
            for slot, arrays in zip(out, _forward(predictor, works, names)):
                slot.update(arrays)
        return out


class EnsembleAdapter:
    """The §IV :class:`~repro.ensemble.CapacitanceEnsemble` (CAP only)."""

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
        per_member: list[list[Arrays]] = [
            [slot["CAP"] for slot in _forward(member.predictor, works, ("CAP",))]
            for member in members
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
