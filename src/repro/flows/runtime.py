"""Training runtime: shared input caching, instrumentation, fault tolerance.

A full paper reproduction trains ~18 independent models (13 paper targets,
the RES extension, and the 4-member §IV CAP ensemble) over the *same* merged
training graph.  This module factors the runtime concerns out of the
training loop:

* :class:`MergedInputsCache` — builds the merged :class:`GraphInputs` once
  per (record set, feature scaler) pair and shares it across every target
  and every ensemble member, instead of re-merging per model.
* :class:`TrainCallback` — a pluggable observer protocol for per-epoch
  instrumentation, with two stock implementations:
  :class:`JsonlMetricsWriter` (append-only metrics log) and
  :class:`ConsoleProgressReporter` (human-readable progress lines).
* :class:`RuntimeConfig` — robustness knobs: NaN/Inf divergence detection
  with re-seeded retries, early stopping on loss plateau, and periodic
  checkpointing that :meth:`TargetPredictor.fit` can resume from
  bit-for-bit.
* :func:`save_checkpoint` / :func:`load_checkpoint` — ``.npz`` snapshots of
  model weights plus optimizer state plus the epoch counter.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.data.dataset import CircuitRecord
from repro.data.normalize import FeatureScaler
from repro.data.targets import TargetSpec
from repro.errors import ModelError
from repro.nn.module import Module
from repro.nn.optim import Optimizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guards, typing only
    from repro.models.inputs import GraphInputs
    from repro.models.trainer import TrainHistory


# ----------------------------------------------------------------------
# Shared merged-input cache
# ----------------------------------------------------------------------
@dataclass
class MergedSplit:
    """A merged training split: shared inputs plus per-record node offsets."""

    inputs: GraphInputs
    offsets: np.ndarray  # global node-id offset of each record's graph
    records: list[CircuitRecord]

    def target_arrays(self, spec: TargetSpec) -> tuple[np.ndarray, np.ndarray]:
        """(global node_ids, ground-truth values) for one target spec."""
        ids, values = [], []
        for record, offset in zip(self.records, self.offsets):
            node_ids, vals = record.target_arrays(spec)
            ids.append(node_ids + offset)
            values.append(vals)
        return np.concatenate(ids), np.concatenate(values)


class MergedInputsCache:
    """Cache of merged ``GraphInputs`` keyed by mega-batch composition.

    The merge + feature-scaling work in the training driver is identical for
    every target trained on the same node population, so ``repro.flows.train``
    and ``train_capacitance_ensemble`` share one cache across all their
    fits.  Entries are keyed by **content**, not identity: the ordered
    circuit fingerprints of the batch and the feature-scaler fingerprint.
    Two differently-composed batches (different circuits, a changed
    circuit, or a different record order — node offsets depend on it) can
    therefore never share an entry, while re-built record objects with
    identical content still hit.  ``hits``/``misses`` count lookups for
    tests and diagnostics.
    """

    def __init__(self) -> None:
        self._merged: dict[tuple, MergedSplit] = {}
        self._targets: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(records: list[CircuitRecord], scaler: FeatureScaler) -> tuple:
        from repro.data.fingerprint import record_fingerprint, scaler_fingerprint

        return (
            tuple(record_fingerprint(record) for record in records),
            scaler_fingerprint(scaler),
        )

    def merged(
        self, records: list[CircuitRecord], scaler: FeatureScaler
    ) -> MergedSplit:
        """Merged inputs for a record list, built at most once.

        Builds per-record :class:`GraphInputs` and disjoint-unions them
        through :meth:`GraphInputs.merge_graphs` (segment plans stitched
        from the per-graph plans).
        """
        key = self._key(records, scaler)
        split = self._merged.get(key)
        if split is not None:
            self.hits += 1
            obs.inc("cache.merged_inputs_hits_total")
            return split
        self.misses += 1
        obs.inc("cache.merged_inputs_misses_total")
        # Imported here rather than at module top: repro.models.__init__
        # imports the trainer, which imports this module.
        from repro.models.inputs import GraphInputs

        with obs.span("cache.merge_inputs", records=len(records)):
            batch = GraphInputs.merge_graphs(
                [GraphInputs.from_record(record, scaler) for record in records]
            )
            split = MergedSplit(
                inputs=batch.inputs, offsets=batch.offsets, records=list(records)
            )
        self._merged[key] = split
        return split

    def merged_target(
        self,
        records: list[CircuitRecord],
        scaler: FeatureScaler,
        spec: TargetSpec,
    ) -> tuple[GraphInputs, np.ndarray, np.ndarray]:
        """(shared inputs, target node_ids, target values) for one spec.

        The returned arrays are cached and shared between callers — treat
        them as read-only (filter with boolean indexing, never in place).
        """
        split = self.merged(records, scaler)
        key = (self._key(records, scaler), spec.name)
        arrays = self._targets.get(key)
        if arrays is None:
            arrays = split.target_arrays(spec)
            self._targets[key] = arrays
        return split.inputs, arrays[0], arrays[1]


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
@dataclass
class TrainContext:
    """Immutable description of one training attempt, passed to callbacks."""

    conv: str
    target: str
    total_epochs: int
    attempt: int
    run_seed: int
    predictor: Any = None  # the TargetPredictor being fitted
    model: Any = None  # the live MultiTaskModel of this attempt


@dataclass
class EpochMetrics:
    """Instrumentation captured at the end of every epoch."""

    epoch: int  # 1-based, global across resume
    loss: float
    grad_norm: float
    lr: float
    seconds: float
    attempt: int = 0

    def as_row(self) -> dict:
        return {
            "epoch": self.epoch,
            "loss": self.loss,
            "grad_norm": self.grad_norm,
            "lr": self.lr,
            "seconds": self.seconds,
            "attempt": self.attempt,
        }


class TrainCallback:
    """Observer protocol for the training loop (all hooks optional)."""

    def on_train_start(self, ctx: TrainContext) -> None: ...

    def on_epoch_end(self, ctx: TrainContext, metrics: EpochMetrics) -> None: ...

    def on_divergence(self, ctx: TrainContext, epoch: int, reason: str) -> None: ...

    def on_checkpoint(self, ctx: TrainContext, path: str) -> None: ...

    def on_train_end(self, ctx: TrainContext, history: "TrainHistory") -> None: ...


class ConsoleProgressReporter(TrainCallback):
    """Print a progress line every *every* epochs (and on lifecycle events).

    Each line carries the observed training rate (epochs/s) and the ETA for
    the remaining epochs, from the cumulative epoch seconds of the current
    attempt.  When ``total_epochs < every`` the final epoch still prints,
    so short runs always produce exactly one progress line.
    """

    def __init__(self, every: int = 10):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self._seconds = 0.0
        self._epochs = 0

    def _tag(self, ctx: TrainContext) -> str:
        retry = f" retry {ctx.attempt}" if ctx.attempt else ""
        return f"[{ctx.conv}/{ctx.target}{retry}]"

    @staticmethod
    def _format_eta(seconds: float) -> str:
        if seconds >= 3600:
            return f"{seconds / 3600:.1f}h"
        if seconds >= 60:
            return f"{seconds / 60:.1f}m"
        return f"{seconds:.0f}s"

    def on_train_start(self, ctx: TrainContext) -> None:
        self._seconds = 0.0
        self._epochs = 0

    def on_epoch_end(self, ctx: TrainContext, metrics: EpochMetrics) -> None:
        self._seconds += metrics.seconds
        self._epochs += 1
        if metrics.epoch % self.every == 0 or metrics.epoch == ctx.total_epochs:
            if self._seconds > 0:
                rate = self._epochs / self._seconds
                remaining = max(ctx.total_epochs - metrics.epoch, 0)
                pace = f" {rate:.1f}ep/s eta {self._format_eta(remaining / rate)}"
            else:
                pace = ""
            print(
                f"{self._tag(ctx)} epoch {metrics.epoch}/{ctx.total_epochs}: "
                f"loss={metrics.loss:.5f} |g|={metrics.grad_norm:.3e} "
                f"{metrics.seconds * 1e3:.0f}ms{pace}",
                flush=True,
            )

    def on_divergence(self, ctx: TrainContext, epoch: int, reason: str) -> None:
        print(f"{self._tag(ctx)} diverged at epoch {epoch}: {reason}", flush=True)

    def on_train_end(self, ctx: TrainContext, history) -> None:
        note = " (early stop)" if history.stopped_early else ""
        print(
            f"{self._tag(ctx)} done: {len(history.losses)} epochs, "
            f"final loss={history.final_loss:.5f}{note}",
            flush=True,
        )


class JsonlMetricsWriter(TrainCallback):
    """Append one JSON object per event to a ``.jsonl`` file.

    The writer holds only the path (opened per write in append mode), so it
    is picklable and safe to pass to process-parallel training.  Schema:
    every row has ``event`` (``start``/``epoch``/``divergence``/
    ``checkpoint``/``end``), ``conv``, ``target`` and ``attempt``; ``epoch``
    rows add the :class:`EpochMetrics` fields, ``end`` rows add
    ``epochs_run``, ``final_loss`` and ``stopped_early``.

    Crash safety: ``checkpoint`` rows are flushed and fsynced so the log on
    disk always covers the state a resume restarts from, and the first
    append of a run terminates any partial last line a crash mid-write left
    behind (readers skip the one malformed line; later rows stay parseable).
    """

    def __init__(self, path: str | os.PathLike):
        self.path = str(path)
        self._checked_partial = False

    def _repair_partial_line(self) -> None:
        """Newline-terminate a truncated last line left by a crash."""
        self._checked_partial = True
        try:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                last = handle.read(1)
        except (FileNotFoundError, OSError):
            return  # no file yet, or empty: nothing to repair
        if last not in (b"\n", b""):
            with open(self.path, "a") as handle:
                handle.write("\n")

    def _write(
        self, ctx: TrainContext, event: str, durable: bool = False, **fields
    ) -> None:
        row = {
            "event": event,
            "conv": ctx.conv,
            "target": ctx.target,
            "attempt": ctx.attempt,
            **fields,
        }
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if not self._checked_partial:
            self._repair_partial_line()
        with open(self.path, "a") as handle:
            handle.write(json.dumps(row) + "\n")
            if durable:
                handle.flush()
                os.fsync(handle.fileno())

    def on_train_start(self, ctx: TrainContext) -> None:
        self._write(ctx, "start", total_epochs=ctx.total_epochs, run_seed=ctx.run_seed)

    def on_epoch_end(self, ctx: TrainContext, metrics: EpochMetrics) -> None:
        row = metrics.as_row()
        row.pop("attempt")  # already in the envelope
        self._write(ctx, "epoch", **row)

    def on_divergence(self, ctx: TrainContext, epoch: int, reason: str) -> None:
        self._write(ctx, "divergence", epoch=epoch, reason=reason)

    def on_checkpoint(self, ctx: TrainContext, path: str) -> None:
        self._write(ctx, "checkpoint", durable=True, path=path)

    def on_train_end(self, ctx: TrainContext, history) -> None:
        self._write(
            ctx,
            "end",
            epochs_run=len(history.losses),
            final_loss=history.final_loss,
            stopped_early=history.stopped_early,
        )


class CallbackList(TrainCallback):
    """Fan a training event out to several callbacks."""

    def __init__(self, callbacks: list[TrainCallback]):
        self.callbacks = list(callbacks)

    def on_train_start(self, ctx):
        for cb in self.callbacks:
            cb.on_train_start(ctx)

    def on_epoch_end(self, ctx, metrics):
        for cb in self.callbacks:
            cb.on_epoch_end(ctx, metrics)

    def on_divergence(self, ctx, epoch, reason):
        for cb in self.callbacks:
            cb.on_divergence(ctx, epoch, reason)

    def on_checkpoint(self, ctx, path):
        for cb in self.callbacks:
            cb.on_checkpoint(ctx, path)

    def on_train_end(self, ctx, history):
        for cb in self.callbacks:
            cb.on_train_end(ctx, history)


# ----------------------------------------------------------------------
# Runtime configuration
# ----------------------------------------------------------------------
@dataclass
class RuntimeConfig:
    """Robustness and instrumentation knobs for ``TargetPredictor.fit``.

    Attributes
    ----------
    callbacks:
        Extra :class:`TrainCallback` observers.
    metrics_jsonl:
        When set, append a :class:`JsonlMetricsWriter` at this path.
    progress_every:
        When > 0, report console progress every N epochs.
    max_retries:
        Divergence retries: a NaN/Inf loss or gradient aborts the attempt
        and retrains from scratch with a re-seeded initialisation, up to
        this many extra attempts.
    patience:
        When > 0, stop early after this many consecutive epochs without the
        loss improving by more than ``min_delta``.
    min_delta:
        Minimum loss improvement that resets the patience counter.
    checkpoint_dir / checkpoint_every:
        When both set, write a resumable snapshot every N epochs.
    """

    callbacks: list[TrainCallback] = field(default_factory=list)
    metrics_jsonl: str | None = None
    progress_every: int = 0
    max_retries: int = 0
    patience: int = 0
    min_delta: float = 0.0
    checkpoint_dir: str | None = None
    checkpoint_every: int = 0

    def build_callbacks(self) -> list[TrainCallback]:
        """The effective callback list (configured + stock writers)."""
        callbacks = list(self.callbacks)
        if self.metrics_jsonl:
            callbacks.append(JsonlMetricsWriter(self.metrics_jsonl))
        if self.progress_every:
            callbacks.append(ConsoleProgressReporter(self.progress_every))
        if obs.is_enabled():
            from repro.obs.callback import ObsTrainCallback

            callbacks.append(ObsTrainCallback())
        return callbacks


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
@dataclass
class Checkpoint:
    """A resumable training snapshot loaded from disk."""

    params: dict[str, np.ndarray]
    optimizer_state: dict[str, np.ndarray]
    epoch: int
    attempt: int
    losses: list[float]
    grad_norms: list[float]
    meta: dict


def save_checkpoint(
    path: str | os.PathLike,
    model: Module,
    optimizer: Optimizer,
    *,
    epoch: int,
    attempt: int,
    losses: list[float],
    grad_norms: list[float],
    meta: dict | None = None,
) -> str:
    """Write a resumable snapshot: weights + optimizer state + epoch.

    The payload reuses :meth:`TargetPredictor.save`'s layout (``param/*``
    entries) and adds ``opt/*`` arrays plus the training history needed to
    continue deterministically.
    """
    path = str(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    payload: dict[str, np.ndarray] = {
        f"param/{name}": value for name, value in model.state_dict().items()
    }
    for name, value in optimizer.state_dict().items():
        payload[f"opt/{name}"] = value
    # staticcheck: ignore[precision-policy] -- checkpoints are
    # float64-canonical on disk regardless of the training precision
    payload["history/losses"] = np.asarray(losses, dtype=np.float64)
    payload["history/grad_norms"] = np.asarray(grad_norms, dtype=np.float64)  # staticcheck: ignore[precision-policy]
    payload["ckpt_meta"] = np.array(
        json.dumps({"epoch": epoch, "attempt": attempt, **(meta or {})})
    )
    np.savez(path, **payload)
    return path


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Load a snapshot written by :func:`save_checkpoint`."""
    path = str(path)
    if not os.path.exists(path):
        raise ModelError(f"checkpoint {path!r} does not exist")
    with np.load(path) as archive:
        if "ckpt_meta" not in archive.files:
            raise ModelError(f"{path!r} is not a training checkpoint")
        meta = json.loads(str(archive["ckpt_meta"]))
        params = {
            name[len("param/"):]: archive[name]
            for name in archive.files
            if name.startswith("param/")
        }
        optimizer_state = {
            name[len("opt/"):]: archive[name]
            for name in archive.files
            if name.startswith("opt/")
        }
        losses = archive["history/losses"].tolist()
        grad_norms = archive["history/grad_norms"].tolist()
    return Checkpoint(
        params=params,
        optimizer_state=optimizer_state,
        epoch=int(meta.pop("epoch")),
        attempt=int(meta.pop("attempt", 0)),
        losses=losses,
        grad_norms=grad_norms,
        meta=meta,
    )
