"""The multi-target model container and per-target worker entry point.

The paper trains an independent model per target (13 paper targets + the
RES extension).  :class:`MultiTargetModel` is the object a designer
actually holds — it predicts everything for a schematic at once through
:class:`repro.api.Engine`.  The driving loop lives in
:func:`repro.flows.train` (a :class:`TrainPlan` consumer).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.data import DatasetBundle
from repro.errors import ModelError
from repro.flows.runtime import RuntimeConfig
from repro.models.trainer import TargetPredictor


@dataclass
class MultiTargetModel:
    """Predictors keyed by the target they answer for.

    A multi-head predictor answers for each of its targets, so it may
    appear under several keys; it is saved once.
    """

    predictors: dict[str, TargetPredictor] = field(default_factory=dict)

    def predictor(self, target: str) -> TargetPredictor:
        try:
            return self.predictors[target]
        except KeyError:
            raise ModelError(
                f"no trained predictor for {target!r}; have {sorted(self.predictors)}"
            ) from None

    def save_dir(self, directory: str | os.PathLike) -> None:
        """Save every distinct predictor as ``<directory>/<tag>.npz``
        (the target name of a one-head predictor, ``multitask`` otherwise)."""
        os.makedirs(directory, exist_ok=True)
        for predictor in {id(p): p for p in self.predictors.values()}.values():
            predictor.save(os.path.join(directory, f"{predictor.tag}.npz"))

    @classmethod
    def load_dir(cls, directory: str | os.PathLike) -> "MultiTargetModel":
        """Load every ``*.npz`` predictor from a directory.

        Raises
        ------
        ModelError
            When no file holds a predictor, or two files answer one target.
        """
        model = cls()
        source: dict[str, str] = {}
        for entry in sorted(os.listdir(directory)):
            if entry.endswith(".npz"):
                predictor = TargetPredictor.load(os.path.join(directory, entry))
                for name in predictor.target_names:
                    if name in source:
                        raise ModelError(
                            f"target {name!r} is answered by both "
                            f"{source[name]!r} and {entry!r} in {directory}"
                        )
                    source[name] = entry
                    model.predictors[name] = predictor
        if not model.predictors:
            raise ModelError(f"no .npz models found in {directory}")
        return model


def _train_target_job(
    job: tuple[TargetPredictor, DatasetBundle, RuntimeConfig | None, str | None],
) -> TargetPredictor:
    """Worker entry point for process-parallel training (must be picklable)."""
    predictor, bundle, runtime, resume_from = job
    return predictor.fit(bundle, runtime=runtime, resume_from=resume_from)
