"""Ensemble modeling for net parasitic capacitance (paper §IV).

A single full-range CAP model treats everything below ~1% of its maximum as
noise, so small capacitances predict poorly (paper Fig. 5a).  The remedy is
a set of range models trained with clamped maximum target values
(``max_v`` = 1 fF, 10 fF, 100 fF, plus the full-range model) combined by
Algorithm 2: start from the lowest-range model's prediction and replace it
with a higher-range model's whenever that model predicts a value beyond the
lower model's ceiling.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.dataset import DatasetBundle
from repro.errors import ModelError
from repro.flows.runtime import MergedInputsCache, RuntimeConfig
from repro.models.trainer import TargetPredictor, TrainConfig

#: Paper §IV range-model ceilings, in farads (plus the full-range model).
DEFAULT_MAX_V = (1e-15, 10e-15, 100e-15)


@dataclass
class RangeModel:
    """One ensemble member: a predictor trained with ceiling ``max_v``."""

    max_v: float  # inf for the full-range model
    predictor: TargetPredictor


def combine_with_sources(
    predictions: Sequence[np.ndarray], max_vs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2 with provenance: (combined values, winning member index).

    ``sources[j]`` is the index of the range model whose prediction the
    combination kept for element ``j`` — the quantity behind the
    ``ensemble.range_selected`` metric and the per-range accuracy analyses.
    """
    if len(predictions) != len(max_vs):
        raise ModelError("predictions/max_vs length mismatch")
    if len(predictions) == 0:
        raise ModelError("ensemble needs at least one model")
    if list(max_vs) != sorted(max_vs):
        raise ModelError("ensemble models must be sorted by ascending max_v")
    # staticcheck: ignore[precision-policy] -- Algorithm 2 compares absolute
    # capacitances in farads; range selection stays float64 regardless of
    # the training precision of the member models
    combined = np.array(predictions[0], dtype=np.float64, copy=True)
    sources = np.zeros(combined.shape, dtype=np.int64)
    for i in range(1, len(predictions)):
        candidate = np.asarray(predictions[i], dtype=np.float64)  # staticcheck: ignore[precision-policy]
        replace = candidate > max_vs[i - 1]
        combined[replace] = candidate[replace]
        sources[replace] = i
    return combined, sources


def combine_predictions(
    predictions: Sequence[np.ndarray], max_vs: Sequence[float]
) -> np.ndarray:
    """Algorithm 2 on pre-computed predictions.

    ``predictions[i]`` comes from the model with ceiling ``max_vs[i]``;
    models must be ordered by ascending ceiling.  Starting from the lowest
    model, a higher model's prediction replaces the current one whenever it
    exceeds the next-lower ceiling.
    """
    return combine_with_sources(predictions, max_vs)[0]


@dataclass
class CapacitanceEnsemble:
    """The full §IV ensemble: K range models + Algorithm 2 selection.

    It predicts through its serving adapter,
    :class:`~repro.api.adapters.EnsembleAdapter` (``predict_one``,
    ``collect``/``evaluate`` in :mod:`repro.api`, an ``Engine``), which
    applies Algorithm 2 to the members' CAP predictions.
    """

    models: list[RangeModel] = field(default_factory=list)

    def __post_init__(self):
        ceilings = [m.max_v for m in self.models]
        if ceilings != sorted(ceilings):
            raise ModelError("RangeModels must be ordered by ascending max_v")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_dir(self, directory: str | os.PathLike) -> None:
        """Save every member plus an ordering manifest under *directory*.

        Members are written as ``member_NN.npz`` (via
        :meth:`TargetPredictor.save`, which persists each member's
        ``max_v``); ``ensemble.json`` records the Algorithm 2 ceiling order
        so :meth:`load_dir` reassembles the ensemble intact.
        """
        if not self.models:
            raise ModelError("cannot save an empty ensemble")
        directory = str(directory)
        os.makedirs(directory, exist_ok=True)
        manifest = []
        for i, member in enumerate(self.models):
            if not hasattr(member.predictor, "save"):
                raise ModelError(
                    f"ensemble member {i} ({type(member.predictor).__name__}) "
                    "does not support save()"
                )
            filename = f"member_{i:02d}.npz"
            member.predictor.save(os.path.join(directory, filename))
            manifest.append(
                {
                    "file": filename,
                    # JSON has no Infinity: the full-range ceiling is null
                    "max_v": None if math.isinf(member.max_v) else member.max_v,
                }
            )
        with open(os.path.join(directory, "ensemble.json"), "w") as handle:
            json.dump({"members": manifest}, handle, indent=2)

    @classmethod
    def load_dir(cls, directory: str | os.PathLike) -> "CapacitanceEnsemble":
        """Reassemble an ensemble saved by :meth:`save_dir`."""
        directory = str(directory)
        manifest_path = os.path.join(directory, "ensemble.json")
        if not os.path.exists(manifest_path):
            raise ModelError(f"{directory!r} is not a saved ensemble")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        models = []
        for entry in manifest["members"]:
            predictor = TargetPredictor.load(os.path.join(directory, entry["file"]))
            ceiling = float("inf") if entry["max_v"] is None else float(entry["max_v"])
            models.append(RangeModel(max_v=ceiling, predictor=predictor))
        return cls(models=models)


def train_capacitance_ensemble(
    bundle: DatasetBundle,
    conv: str = "paragraph",
    max_vs: Sequence[float] = DEFAULT_MAX_V,
    config: TrainConfig | None = None,
    runtime: RuntimeConfig | None = None,
    inputs_cache: MergedInputsCache | None = None,
) -> CapacitanceEnsemble:
    """Train the range models plus the full-range model and assemble them.

    Each member reuses *config* but overrides ``max_v``; the full-range
    member (ceiling inf) trains unclamped.  All members train on the same
    node population, so the merged training inputs are built once and
    shared through a :class:`MergedInputsCache`.
    """
    base = config or TrainConfig()
    cache = inputs_cache if inputs_cache is not None else MergedInputsCache()
    members: list[RangeModel] = []
    for ceiling in sorted(max_vs):
        cfg = TrainConfig(**{**base.__dict__, "max_v": ceiling})
        predictor = TargetPredictor(conv, "CAP", cfg).fit(
            bundle, runtime=runtime, inputs_cache=cache
        )
        members.append(RangeModel(max_v=ceiling, predictor=predictor))
    full_cfg = TrainConfig(**{**base.__dict__, "max_v": None})
    full = TargetPredictor(conv, "CAP", full_cfg).fit(
        bundle, runtime=runtime, inputs_cache=cache
    )
    members.append(RangeModel(max_v=float("inf"), predictor=full))
    return CapacitanceEnsemble(models=members)
