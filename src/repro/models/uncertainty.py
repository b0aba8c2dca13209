"""Prediction uncertainty from seed ensembles.

Training the same model with several initialisation seeds and reading the
spread of their predictions gives a cheap epistemic-uncertainty estimate:
nets where members disagree are nets the model does not trust (typically
large floorplan-dominated parasitics, paper §V's hardest cases).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import CircuitRecord, DatasetBundle
from repro.errors import ModelError
from repro.models.trainer import TargetPredictor, TrainConfig


@dataclass
class UncertainPrediction:
    """Per-node prediction mean and member spread."""

    node_ids: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    names: list[str] = field(default_factory=list)

    def relative_std(self) -> np.ndarray:
        """std / mean (coefficient of variation), guarded for zero means."""
        return self.std / np.maximum(self.mean, 1e-30)


class SeedEnsemblePredictor:
    """N same-configuration models trained with different seeds."""

    def __init__(
        self,
        conv: str = "paragraph",
        target: str = "CAP",
        config: TrainConfig | None = None,
        n_members: int = 5,
    ):
        if n_members < 2:
            raise ModelError("a seed ensemble needs at least 2 members")
        self.conv = conv
        self.target = target
        self.config = config or TrainConfig()
        self.n_members = n_members
        self.members: list[TargetPredictor] = []

    def fit(self, bundle: DatasetBundle) -> "SeedEnsemblePredictor":
        """Train every member (seeds = config.run_seed + member index)."""
        self.members = []
        for index in range(self.n_members):
            cfg = TrainConfig(
                **{**self.config.__dict__, "run_seed": self.config.run_seed + index}
            )
            member = TargetPredictor(self.conv, self.target, cfg)
            member.fit(bundle)
            self.members.append(member)
        return self

    def predict_with_uncertainty(self, record: CircuitRecord) -> UncertainPrediction:
        """Mean and member-spread (std) per node, every member served
        through its adapter on one shared graph."""
        from repro.api import GraphWork, make_adapter

        if not self.members:
            raise ModelError("seed ensemble is not fitted")
        work = GraphWork.local(record.graph)
        answers = [
            make_adapter(member).predict_works([work], (self.target,))[0][self.target]
            for member in self.members
        ]
        ids = answers[0][0]
        matrix = np.vstack([values for _, values in answers])
        return UncertainPrediction(
            node_ids=ids,
            mean=matrix.mean(axis=0),
            std=matrix.std(axis=0),
            names=[record.graph.node_name_of[i] for i in ids],
        )
