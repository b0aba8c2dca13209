"""The typed training plan: one entry point for every training shape.

:class:`TrainPlan` is one declarative value ("which targets, which conv,
shared trunk or per-target models, which runtime") and :func:`train` the
one verb that consumes it.  Plan validation happens at construction, so
an invalid combination fails before any training compute is spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.targets import ALL_TARGETS, target_by_name
from repro.errors import ModelError
from repro.flows.runtime import MergedInputsCache, RuntimeConfig
from repro.models.trainer import TargetPredictor, TrainConfig, TrainHistory

#: Trunk-sharing modes: independent model per target (the paper's setup)
#: or one shared trunk with per-target readout heads.
TRUNK_MODES = ("per_target", "shared")


@dataclass(frozen=True)
class TrainPlan:
    """Declarative description of one training run.

    Parameters
    ----------
    targets:
        Target names to fit; ``None`` means the 13 paper targets.
    conv:
        GNN flavour (``paragraph``, ``sage``, ``rgcn``, ``gat``, ``gcn``).
    config:
        Hyper-parameters shared by every target; ``None`` uses
        ``TrainConfig(epochs=60)`` (the historical suite default).
        ``max_v`` applies to the CAP model only.
    trunk:
        ``"per_target"`` trains an independent one-head model per target
        (paper §V); ``"shared"`` trains one :class:`SharedTrunk` with
        per-target readout heads — one trunk pass per epoch for all
        targets.  A single-target shared plan is the per-target model.
    loss_weights:
        Per-target weights for the shared-trunk loss (unlisted targets
        weigh 1.0).  Only meaningful with ``trunk="shared"``.
    runtime:
        Callbacks / retries / early stopping / checkpointing, applied to
        every per-target fit (or the single multi-task fit).
    parallel_workers:
        Process-pool width for the per-target path; ``0``/``1`` trains
        serially through a shared input cache.
    resume_from:
        Checkpoint path to continue from; requires a single-target plan
        or a shared trunk (one checkpoint describes one model).
    """

    targets: tuple[str, ...] | None = None
    conv: str = "paragraph"
    config: TrainConfig | None = None
    trunk: str = "per_target"
    loss_weights: dict[str, float] | None = None
    runtime: RuntimeConfig | None = None
    parallel_workers: int = 0
    resume_from: str | None = None

    def __post_init__(self) -> None:
        if self.trunk not in TRUNK_MODES:
            raise ModelError(
                f"unknown trunk mode {self.trunk!r}; choose from {TRUNK_MODES}"
            )
        if self.targets is not None:
            if not self.targets:
                raise ModelError("plan needs at least one target")
            object.__setattr__(self, "targets", tuple(self.targets))
            seen: set[str] = set()
            for name in self.targets:
                target_by_name(name)  # raises on unknown targets
                if name in seen:
                    raise ModelError(f"duplicate target {name!r} in plan")
                seen.add(name)
        if self.loss_weights is not None and self.trunk != "shared":
            raise ModelError(
                "loss_weights only apply to trunk='shared' plans; "
                "per-target models each minimise their own loss"
            )
        if self.trunk == "shared" and self.parallel_workers > 1:
            raise ModelError(
                "trunk='shared' trains one joint model; "
                "parallel_workers does not apply"
            )
        if (
            self.resume_from is not None
            and self.trunk == "per_target"
            and len(self.target_names) != 1
        ):
            raise ModelError(
                "resume_from requires a single-target plan (or a shared "
                "trunk); a checkpoint describes exactly one model"
            )

    @property
    def target_names(self) -> tuple[str, ...]:
        """Resolved target names (the 13 paper targets when unset)."""
        if self.targets is not None:
            return self.targets
        return tuple(spec.name for spec in ALL_TARGETS)


@dataclass
class TrainResult:
    """What :func:`train` hands back.

    ``model`` is a :class:`~repro.flows.training.MultiTargetModel` of
    one-head predictors for per-target plans and one multi-head
    :class:`~repro.models.trainer.TargetPredictor` for shared-trunk plans;
    ``histories`` maps target name (or ``"multitask"``) to its
    :class:`~repro.models.trainer.TrainHistory`.
    """

    model: object
    histories: dict[str, TrainHistory] = field(default_factory=dict)
    plan: TrainPlan | None = None


def train(
    bundle,
    plan: TrainPlan | None = None,
    *,
    inputs_cache: MergedInputsCache | None = None,
) -> TrainResult:
    """Train according to *plan* (default: all 13 targets, per-target)."""
    plan = plan or TrainPlan()
    base = plan.config or TrainConfig(epochs=60)
    cache = inputs_cache if inputs_cache is not None else MergedInputsCache()
    if plan.trunk == "shared":
        predictor = TargetPredictor(
            plan.conv, plan.target_names, base, plan.loss_weights
        ).fit(
            bundle,
            runtime=plan.runtime,
            inputs_cache=cache,
            resume_from=plan.resume_from,
        )
        return TrainResult(
            model=predictor,
            histories={"multitask": predictor.history},
            plan=plan,
        )

    from repro.flows.training import MultiTargetModel, _train_target_job

    jobs = []
    for name in plan.target_names:
        cfg_kwargs = dict(base.__dict__)
        if name != "CAP":
            # max_v is the §IV CAP training clamp; other targets train on
            # their full value range
            cfg_kwargs["max_v"] = None
        jobs.append(TargetPredictor(plan.conv, name, TrainConfig(**cfg_kwargs)))

    model = MultiTargetModel()
    if plan.parallel_workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        worker_jobs = [
            (predictor, bundle, plan.runtime, plan.resume_from) for predictor in jobs
        ]
        with ProcessPoolExecutor(max_workers=plan.parallel_workers) as pool:
            jobs = list(pool.map(_train_target_job, worker_jobs))
    else:
        for predictor in jobs:
            predictor.fit(
                bundle,
                runtime=plan.runtime,
                inputs_cache=cache,
                resume_from=plan.resume_from,
            )
    for predictor in jobs:
        model.predictors[predictor.tag] = predictor
    return TrainResult(
        model=model,
        histories={
            name: predictor.history for name, predictor in model.predictors.items()
        },
        plan=plan,
    )
