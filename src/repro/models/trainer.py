"""Training driver: one predictor class, one training loop.

Reproduces the paper's §V setup: ADAM at lr 0.01, MSE loss, 300 epochs,
embedding width F=32, depth L=5, readout of 4 FC layers for the CAP model
and 2 for device parameters.  A :class:`TargetPredictor` trains one
:class:`~repro.models.multitask.MultiTaskModel`: a trunk under one readout
head per target.  The paper's per-target model is the one-head case; a
shared-trunk predictor fits several heads against one trunk pass per
epoch, summing their (optionally weighted) MSE terms into one loss.  CAP
heads support the ``max_v`` clamp of §IV (training samples above
``max_v`` are dropped), which is the building block of ensemble modeling.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from repro import obs
from repro.circuits.devices import NODE_TYPES
from repro.data.dataset import CircuitRecord, DatasetBundle
from repro.data.normalize import (
    FeatureScaler,
    LogTargetScaler,
    TargetScaler,
    log_scaler_from_values,
    scaler_from_std,
)
from repro.data.targets import TargetSpec, target_by_name
from repro.errors import ModelError
from repro.flows.runtime import (
    CallbackList,
    EpochMetrics,
    MergedInputsCache,
    RuntimeConfig,
    TrainContext,
    load_checkpoint,
    save_checkpoint,
)
from repro.graph.features import feature_dim
from repro.models.inputs import GraphInputs
from repro.models.multitask import MultiTaskModel, ReadoutHead, SharedTrunk
from repro.nn import Adam, Tensor, global_grad_norm, mse_loss, no_grad, precision
from repro.nn.plan import SegmentPlan
from repro.rng import stream


@dataclass
class TrainConfig:
    """Hyper-parameters (defaults = paper §V)."""

    embed_dim: int = 32
    num_layers: int = 5
    num_fc_layers: int | None = None  # None -> 4 for CAP, 2 for device targets
    epochs: int = 300
    lr: float = 0.01
    run_seed: int = 0
    max_v: float | None = None  # §IV training clamp (CAP only), in farads
    conv_kwargs: dict = field(default_factory=dict)
    #: The paper trains without L2 ("training sets sufficiently large"); at
    #: this reproduction's much smaller dataset scale a little decay keeps
    #: the high-capacity relational models from memorising layout noise.
    weight_decay: float = 1e-4
    #: Device-parameter values span orders of magnitude (areas scale with
    #: NF x NFIN x MULTI); training them in log space keeps small devices
    #: accurate.  CAP always trains linearly — the §IV ensemble behaviour
    #: (Fig. 5) depends on it.
    log_device_targets: bool = True
    #: Compute precision for training (``"float64"`` or ``"float32"``).
    #: float64 is the default and bit-compatible with historical runs;
    #: float32 halves memory bandwidth on the segment kernels at ~1e-3
    #: relative loss drift (see docs/performance.md).  Saved models are
    #: always stored in float64 regardless of this knob.
    dtype: str = "float64"


@dataclass
class TrainHistory:
    """Per-epoch training instrumentation.

    ``losses`` keeps its historical meaning (one entry per completed
    epoch); ``grad_norms`` and ``epoch_seconds`` run parallel to it.
    ``attempts`` counts training attempts including divergence retries,
    and ``resumed_from`` is the epoch a checkpoint resume continued from
    (0 for a fresh run).
    """

    losses: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    attempts: int = 1
    stopped_early: bool = False
    resumed_from: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def resolve_target_scaler(
    spec: TargetSpec,
    values: np.ndarray,
    *,
    max_v: float | None,
    log_device_targets: bool,
) -> tuple[TargetScaler, int]:
    """(target scaler, paper-default readout depth) for one target.

    The §IV ensemble semantics (CAP linear with a ``max_v`` ceiling) and
    the log-space device targets live here, for the GNN trainer and the
    classical baselines alike.
    """
    if spec.name == "CAP":
        # CAP must train linearly: the §IV ensemble phenomenon (Fig. 5)
        # depends on small values drowning in a full-range model's error.
        scale = max_v if max_v is not None else float(values.max())
        return TargetScaler(scale), 4
    if spec.kind == "net":
        # other net targets (RES extension) span decades with no
        # ensemble semantics: log space keeps small nets accurate
        return log_scaler_from_values(values), 4
    if log_device_targets:
        return log_scaler_from_values(values), 2
    return scaler_from_std(values), 2


def _per_target_params(
    params: dict[str, np.ndarray], target: str
) -> dict[str, np.ndarray]:
    """One-way reader of the per-target parameter names written before
    every model became a trunk plus heads: ``encoder.*``/``convs.*`` move
    under ``trunk.``, ``readout.*`` under ``heads.<target>.``."""
    renamed = {}
    for name, value in params.items():
        if name.startswith(("encoder.", "convs.")):
            name = f"trunk.{name}"
        elif name.startswith("readout."):
            name = f"heads.{target}.{name}"
        renamed[name] = value
    return renamed


def _scaler_from_meta(entry: dict) -> TargetScaler:
    """One head's target scaler from its saved ``meta`` entry."""
    if entry.get("scaler_kind") == "log":
        return LogTargetScaler(
            float(entry["target_scale"]),
            floor=float(
                entry.get("target_scaler_floor", LogTargetScaler(1.0).floor)
            ),
        )
    return TargetScaler(float(entry["target_scale"]))


class TargetPredictor:
    """A trained GNN: one trunk, one readout head per target.

    Parameters
    ----------
    conv:
        GNN flavour (``paragraph``, ``sage``, ``rgcn``, ``gat``, ``gcn``).
    targets:
        One target name (``CAP``, ``LDE3``, ``SA``...) or
        :class:`TargetSpec` for the paper's per-target model, or a
        sequence of them for a shared trunk with one head per target.
    config:
        Training hyper-parameters; ``max_v`` applies to the CAP head only.
    loss_weights:
        Optional per-target weights for the summed loss; unlisted targets
        weigh 1.0.  The total loss is ``sum_t w_t * mse_t`` — no implicit
        normalisation, so weights are directly comparable across runs.

    A fitted predictor answers through :mod:`repro.api` (``predict_one``,
    ``collect``/``evaluate``, an ``Engine``), the serving path of every
    model family.
    """

    def __init__(
        self,
        conv: str = "paragraph",
        targets: str | TargetSpec | Sequence[str | TargetSpec] = "CAP",
        config: TrainConfig | None = None,
        loss_weights: dict[str, float] | None = None,
    ):
        if isinstance(targets, (str, TargetSpec)):
            targets = [targets]
        self.conv = conv
        self.specs = [
            t if isinstance(t, TargetSpec) else target_by_name(t) for t in targets
        ]
        if not self.specs:
            raise ModelError("a predictor needs at least one target")
        seen: set[str] = set()
        for spec in self.specs:
            if spec.name in seen:
                raise ModelError(f"duplicate target {spec.name!r}")
            seen.add(spec.name)
        self.config = config or TrainConfig()
        self.loss_weights = dict(loss_weights or {})
        unknown = set(self.loss_weights) - seen
        if unknown:
            raise ModelError(
                f"loss weights for unknown targets: {sorted(unknown)}"
            )
        self.model: MultiTaskModel | None = None
        self.target_scalers: dict[str, TargetScaler] = {}
        self.history = TrainHistory()
        #: per-target unweighted MSE per completed epoch (parallel to
        #: ``history.losses``, which tracks the weighted total)
        self.target_losses: dict[str, list[float]] = {}
        self._scaler: FeatureScaler | None = None  # captured at fit
        self._fc_layers: dict[str, int] = {}  # readout depths resolved at fit

    @property
    def target_names(self) -> list[str]:
        return [spec.name for spec in self.specs]

    @property
    def tag(self) -> str:
        """Name of this model in checkpoints, logs and spans: the target
        of a one-head model, ``"multitask"`` otherwise."""
        return self.specs[0].name if len(self.specs) == 1 else "multitask"

    @property
    def spec(self) -> TargetSpec:
        """The target of a one-head predictor."""
        return self._spec(None)

    @property
    def target_scaler(self) -> TargetScaler | None:
        """The fitted target scaler of a one-head predictor."""
        return self.target_scalers.get(self.spec.name)

    def _spec(self, target: str | None) -> TargetSpec:
        if target is None:
            if len(self.specs) == 1:
                return self.specs[0]
            raise ModelError(
                f"predictor has heads {self.target_names}; name a target"
            )
        for spec in self.specs:
            if spec.name == target:
                return spec
        raise ModelError(
            f"predictor has no head for target {target!r}; "
            f"available: {self.target_names}"
        )

    # ------------------------------------------------------------------
    def fit(
        self,
        bundle: DatasetBundle,
        *,
        runtime: RuntimeConfig | None = None,
        inputs_cache: MergedInputsCache | None = None,
        resume_from: str | os.PathLike | None = None,
    ) -> "TargetPredictor":
        """Train trunk + heads on the bundle's train split; returns self.

        Parameters
        ----------
        runtime:
            Instrumentation and robustness knobs (callbacks, divergence
            retries, early stopping, checkpointing).  Defaults preserve the
            historical behaviour: plain full-length training.
        inputs_cache:
            A shared :class:`MergedInputsCache`; when several predictors
            train on the same bundle this avoids re-merging the training
            graphs per model.
        resume_from:
            Path of a checkpoint written by a previous fit of the same
            conv/targets; training continues from its epoch counter with
            the exact optimizer state, reproducing the uninterrupted run
            bit-for-bit.
        """
        with obs.span("train.fit", conv=self.conv, target=self.tag):
            with precision.compute_dtype(self.config.dtype):
                return self._fit(
                    bundle,
                    runtime or RuntimeConfig(),
                    inputs_cache if inputs_cache is not None else MergedInputsCache(),
                    resume_from,
                )

    def _prepare(
        self, bundle: DatasetBundle, cache: MergedInputsCache
    ) -> tuple[GraphInputs, dict[str, tuple[np.ndarray, Tensor, SegmentPlan]]]:
        """Merged training inputs plus (ids, scaled targets, gather plan)
        per head; resolves each head's target scaler and readout depth."""
        cfg = self.config
        records = bundle.records("train")
        prepared: dict[str, tuple[np.ndarray, Tensor, SegmentPlan]] = {}
        with obs.span("train.inputs", target=self.tag):
            for spec in self.specs:
                inputs, ids, values = cache.merged_target(
                    records, bundle.scaler, spec
                )
                if len(ids) == 0:
                    raise ModelError(
                        f"no training samples for target {spec.name}"
                    )
                if spec.name == "CAP" and cfg.max_v is not None:
                    keep = values <= cfg.max_v
                    if not keep.any():
                        raise ModelError(
                            f"max_v={cfg.max_v} removed every training sample"
                        )
                    # boolean indexing copies; cached arrays stay untouched
                    ids, values = ids[keep], values[keep]
                scaler, default_fc = resolve_target_scaler(
                    spec,
                    values,
                    max_v=cfg.max_v,
                    log_device_targets=cfg.log_device_targets,
                )
                self.target_scalers[spec.name] = scaler
                # an explicit num_fc_layers (including 0 = linear readout)
                # is always honoured; only None falls back to the paper
                self._fc_layers[spec.name] = (
                    cfg.num_fc_layers
                    if cfg.num_fc_layers is not None
                    else default_fc
                )
                prepared[spec.name] = (
                    ids,
                    Tensor(scaler.transform(values).reshape(-1, 1)),
                    SegmentPlan.build(ids, inputs.num_nodes),
                )
        self._scaler = bundle.scaler
        return inputs, prepared

    def _build_model(self, attempt: int = 0) -> MultiTaskModel:
        """A freshly initialised trunk + heads.

        A one-head model draws its trunk and then its head from the
        ``model/<conv>/<target>`` substream (the draw order of the paper's
        per-target models, so their seeds reproduce bitwise).  With several
        heads the trunk and every head draw from their own named
        substreams, so adding or removing a target never perturbs the
        others' inits.  Retries append ``retry/<n>``, so a diverged
        initialisation is never replayed.
        """
        cfg = self.config
        retry = ["retry", attempt] if attempt else []
        one_head = len(self.specs) == 1
        trunk_rng = stream(
            cfg.run_seed, "model", self.conv,
            self.tag if one_head else "trunk", *retry,
        )
        trunk = SharedTrunk(
            conv=self.conv,
            feature_dims={t: feature_dim(t) for t in NODE_TYPES},
            rng=trunk_rng,
            embed_dim=cfg.embed_dim,
            num_layers=cfg.num_layers,
            conv_kwargs=cfg.conv_kwargs or {},
        )
        heads = {
            spec.name: ReadoutHead(
                cfg.embed_dim,
                self._fc_layers[spec.name],
                trunk_rng if one_head else stream(
                    cfg.run_seed, "model", self.conv, "head", spec.name, *retry
                ),
            )
            for spec in self.specs
        }
        return MultiTaskModel(trunk, heads)

    def _fit(
        self,
        bundle: DatasetBundle,
        rt: RuntimeConfig,
        cache: MergedInputsCache,
        resume_from: str | os.PathLike | None,
    ) -> "TargetPredictor":
        cfg = self.config
        tag = self.tag
        emit = CallbackList(rt.build_callbacks())

        inputs, prepared = self._prepare(bundle, cache)
        weights = {
            name: float(self.loss_weights.get(name, 1.0))
            for name in self.target_names
        }

        checkpoint = load_checkpoint(resume_from) if resume_from is not None else None
        if checkpoint is not None:
            ck_conv = checkpoint.meta.get("conv")
            # per-target checkpoints written before heads existed carry
            # only "target" and the old parameter names
            ck_targets = checkpoint.meta.get("targets")
            if ck_targets is None:
                ck_targets = [checkpoint.meta.get("target")]
                checkpoint.params = _per_target_params(
                    checkpoint.params, ck_targets[0]
                )
            if ck_conv != self.conv or ck_targets != self.target_names:
                raise ModelError(
                    f"checkpoint was written for {ck_conv} targets="
                    f"{ck_targets}, cannot resume {self.conv} "
                    f"targets={self.target_names}"
                )

        last_reason = "training diverged"
        for attempt in range(rt.max_retries + 1):
            model = self._build_model(attempt)
            optimizer = Adam(
                model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay
            )
            params = optimizer.params
            history = TrainHistory(attempts=attempt + 1)
            target_losses: dict[str, list[float]] = {
                name: [] for name in self.target_names
            }
            start_epoch = 0
            if checkpoint is not None and attempt == 0:
                model.load_state_dict(checkpoint.params)
                optimizer.load_state_dict(checkpoint.optimizer_state)
                start_epoch = checkpoint.epoch
                history.losses = list(checkpoint.losses)
                history.grad_norms = list(checkpoint.grad_norms)
                history.epoch_seconds = [float("nan")] * start_epoch
                history.resumed_from = start_epoch
                for name, losses in checkpoint.meta.get(
                    "target_losses", {}
                ).items():
                    target_losses[name] = list(losses)

            ctx = TrainContext(
                conv=self.conv,
                target=tag,
                total_epochs=cfg.epochs,
                attempt=attempt,
                run_seed=cfg.run_seed,
                predictor=self,
                model=model,
            )
            emit.on_train_start(ctx)

            diverged = None
            best_loss = min(history.losses) if history.losses else math.inf
            epochs_since_best = 0
            for epoch in range(start_epoch, cfg.epochs):
                tick = time.perf_counter()
                with obs.span("train.epoch", epoch=epoch + 1, target=tag):
                    optimizer.zero_grad()
                    z = model.embed(inputs)
                    total = None
                    epoch_target_losses = {}
                    for name, (ids, targets, plan) in prepared.items():
                        term = mse_loss(model.heads[name](z, ids, plan), targets)
                        epoch_target_losses[name] = term.item()
                        if weights[name] != 1.0:
                            term = term * weights[name]
                        total = term if total is None else total + term
                    loss_value = total.item()
                    if not math.isfinite(loss_value):
                        diverged = f"non-finite loss {loss_value}"
                    else:
                        total.backward()
                        grad_norm = global_grad_norm(params)
                        if not math.isfinite(grad_norm):
                            diverged = f"non-finite gradient norm {grad_norm}"
                        else:
                            optimizer.step()
                if diverged is not None:
                    emit.on_divergence(ctx, epoch + 1, diverged)
                    break
                seconds = time.perf_counter() - tick
                history.losses.append(loss_value)
                history.grad_norms.append(grad_norm)
                history.epoch_seconds.append(seconds)
                for name, value in epoch_target_losses.items():
                    target_losses[name].append(value)
                emit.on_epoch_end(
                    ctx,
                    EpochMetrics(
                        epoch=epoch + 1,
                        loss=loss_value,
                        grad_norm=grad_norm,
                        lr=optimizer.lr,
                        seconds=seconds,
                        attempt=attempt,
                    ),
                )
                if (
                    rt.checkpoint_dir
                    and rt.checkpoint_every
                    and (epoch + 1) % rt.checkpoint_every == 0
                ):
                    with obs.span(
                        "train.checkpoint", epoch=epoch + 1, target=tag
                    ):
                        path = save_checkpoint(
                            os.path.join(
                                rt.checkpoint_dir,
                                f"{self.conv}-{tag}-epoch{epoch + 1:05d}.npz",
                            ),
                            model,
                            optimizer,
                            epoch=epoch + 1,
                            attempt=attempt,
                            losses=history.losses,
                            grad_norms=history.grad_norms,
                            meta={
                                "conv": self.conv,
                                "target": tag,
                                "targets": self.target_names,
                                "target_losses": target_losses,
                                "run_seed": cfg.run_seed,
                                "epochs": cfg.epochs,
                            },
                        )
                    emit.on_checkpoint(ctx, path)
                if rt.patience:
                    if loss_value < best_loss - rt.min_delta:
                        best_loss = loss_value
                        epochs_since_best = 0
                    else:
                        epochs_since_best += 1
                        if epochs_since_best >= rt.patience:
                            history.stopped_early = True
                            break

            if diverged is None:
                self.model = model
                self.history = history
                self.target_losses = target_losses
                emit.on_train_end(ctx, history)
                return self
            last_reason = diverged
            checkpoint = None  # a diverged lineage is not worth resuming

        raise ModelError(
            f"training {self.conv}/{tag} diverged after "
            f"{rt.max_retries + 1} attempt(s): {last_reason}"
        )

    # ------------------------------------------------------------------
    def _require_fit(self) -> MultiTaskModel:
        if self.model is None or not self.target_scalers:
            raise ModelError("predictor is not fitted; call fit() first")
        return self.model

    def _to_si(self, target: str, scaled: np.ndarray) -> np.ndarray:
        """SI-unit values of one head's scaled outputs, clamped at zero —
        capacitances and geometries are physical quantities."""
        return np.maximum(self.target_scalers[target].inverse(scaled), 0.0)

    def attention_report(
        self, record: CircuitRecord, layer: int = 0
    ) -> list[tuple[str, str, str, float]]:
        """First-layer attention weights as (edge_type, src, dst, alpha) rows.

        Only available for the ParaGraph model with attention enabled;
        sorted by descending weight for quick inspection.
        """
        trunk = self._require_fit().trunk
        conv = trunk.convs[layer]
        if not hasattr(conv, "attention_weights"):
            raise ModelError(f"conv {self.conv!r} does not expose attention")
        inputs = GraphInputs.from_record(record, self._scaler)
        with no_grad():
            h = trunk.encoder(inputs)
            for earlier in trunk.convs[:layer]:
                h = earlier(h, inputs)
            weights = conv.attention_weights(h, inputs)
        if not weights:
            return []
        # Array-side assembly: gather edge endpoint names per edge type,
        # concatenate across types, and order everything with one argsort
        # instead of touching each edge from Python.
        names = np.asarray(record.graph.node_name_of, dtype=object)
        type_cols, src_cols, dst_cols, alpha_cols = [], [], [], []
        for edge_type, alpha in weights.items():
            src, dst = inputs.edges[edge_type]
            type_cols.append(np.full(len(src), edge_type, dtype=object))
            src_cols.append(names[src])
            dst_cols.append(names[dst])
            alpha_cols.append(np.asarray(alpha, dtype=np.float64))  # staticcheck: ignore[precision-policy] -- report output, not compute
        types = np.concatenate(type_cols)
        srcs = np.concatenate(src_cols)
        dsts = np.concatenate(dst_cols)
        alphas = np.concatenate(alpha_cols)
        # stable sort keeps the historical tie order (edge-type insertion,
        # then edge index) for equal weights
        order = np.argsort(-alphas, kind="stable")
        return [
            (types[k], srcs[k], dsts[k], float(alphas[k])) for k in order
        ]

    def embed_record(
        self, record: CircuitRecord, target: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(target node_ids, embedding rows) — used for t-SNE (Fig. 8)."""
        model = self._require_fit()
        inputs = GraphInputs.from_record(record, self._scaler)
        ids = self._spec(target).node_ids(record.graph)
        with no_grad():
            z = model.trunk(inputs).numpy()
        return ids, z[ids]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Write trunk + heads + scalers + config to one .npz file."""
        model = self._require_fit()
        cfg = self.config
        # weights are stored in float64 regardless of the training dtype so
        # artifacts stay portable across precision policies
        payload: dict[str, np.ndarray] = {
            f"param/{name}": value.astype(np.float64, copy=False)  # staticcheck: ignore[precision-policy]
            for name, value in model.state_dict().items()
        }
        per_target = {}
        for name in self.target_names:
            scaler = self.target_scalers[name]
            entry = {
                "target_scale": scaler.scale,
                "scaler_kind": (
                    "log" if isinstance(scaler, LogTargetScaler) else "linear"
                ),
                "num_fc_layers": self._fc_layers[name],
            }
            if isinstance(scaler, LogTargetScaler):
                entry["target_scaler_floor"] = scaler.floor
            per_target[name] = entry
        meta = {
            "conv": self.conv,
            "target": self.tag,
            "targets": self.target_names,
            "per_target": per_target,
            "loss_weights": self.loss_weights,
            "embed_dim": cfg.embed_dim,
            "num_layers": cfg.num_layers,
            "num_fc_layers": cfg.num_fc_layers,
            "conv_kwargs": cfg.conv_kwargs or {},
            # Training provenance that load() must restore: without max_v a
            # reloaded CAP range model loses its ceiling and a saved §IV
            # ensemble cannot be reassembled.
            "max_v": cfg.max_v,
            "weight_decay": cfg.weight_decay,
            "log_device_targets": cfg.log_device_targets,
            "epochs": cfg.epochs,
            "lr": cfg.lr,
            "run_seed": cfg.run_seed,
            "dtype": cfg.dtype,
        }
        payload["meta"] = np.array(json.dumps(meta))
        for type_name, mean in self._scaler.means.items():
            payload[f"fmean/{type_name}"] = mean
            payload[f"fstd/{type_name}"] = self._scaler.stds[type_name]
        np.savez(path, **payload)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "TargetPredictor":
        """Load a predictor saved by :meth:`save`; ready for prediction.

        Per-target artifacts written before every model became a trunk
        plus heads (one target's scaler fields at the top of ``meta``,
        ``encoder.*``/``convs.*``/``readout.*`` parameters) load as the
        one-head predictor they describe.
        """
        with np.load(path) as archive:
            meta = json.loads(str(archive["meta"]))
            params = {
                name[len("param/"):]: archive[name]
                for name in archive.files
                if name.startswith("param/")
            }
            scaler = FeatureScaler()
            for name in archive.files:
                if name.startswith("fmean/"):
                    type_name = name[len("fmean/"):]
                    scaler.means[type_name] = archive[name]
                    scaler.stds[type_name] = archive[f"fstd/{type_name}"]
        if "targets" not in meta:
            target = meta["target"]
            meta["targets"] = [target]
            meta["per_target"] = {target: meta}
            params = _per_target_params(params, target)
        config_fields = {f.name for f in fields(TrainConfig)}
        predictor = cls(
            conv=meta["conv"],
            targets=meta["targets"],
            config=TrainConfig(
                **{key: meta[key] for key in config_fields & set(meta)}
            ),
            loss_weights=meta.get("loss_weights") or None,
        )
        for name in predictor.target_names:
            entry = meta["per_target"][name]
            predictor._fc_layers[name] = int(entry["num_fc_layers"])
            predictor.target_scalers[name] = _scaler_from_meta(entry)
        # the construction draws are throwaways: the saved weights replace them
        predictor.model = predictor._build_model()
        predictor.model.load_state_dict(params)
        predictor._scaler = scaler
        return predictor
