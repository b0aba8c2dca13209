"""Baseline predictors on node features alone (paper's XGBoost / Linear rows).

The classical baselines see exactly the Table II features of the node being
predicted — no graph structure — matching the paper's "XGBoost and Linear
Regression based on node features alone".  Device-parameter baselines get a
thin/thick one-hot since their population spans two node types.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import devices as dev
from repro.data.dataset import DatasetBundle
from repro.data.normalize import FeatureScaler, TargetScaler
from repro.data.targets import TargetSpec, target_by_name
from repro.errors import ModelError
from repro.graph.hetero import HeteroGraph
from repro.models.gbdt import GradientBoostedTrees
from repro.models.linreg import RidgeRegression
from repro.models.trainer import resolve_target_scaler


def baseline_features(
    graph: HeteroGraph, scaler: FeatureScaler, spec: TargetSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(node_ids, feature matrix) for a target population on one graph."""
    scaled = scaler.transform(graph)
    ids = spec.node_ids(graph)
    if spec.kind == "net":
        return ids, scaled[dev.NET]
    rows = []
    for node_id in ids:
        type_name = graph.node_type_of[node_id]
        members = graph.nodes_of_type[type_name]
        row_index = int(np.searchsorted(members, node_id))
        onehot = [1.0, 0.0] if type_name == dev.TRANSISTOR else [0.0, 1.0]
        rows.append(np.concatenate([scaled[type_name][row_index], onehot]))
    return ids, np.asarray(rows, dtype=np.float64)


class BaselinePredictor:
    """XGBoost-style or linear baseline, served like the GNN predictor.

    It answers through :mod:`repro.api` (``predict_one``,
    ``collect``/``evaluate``, an ``Engine``), whose baseline adapter calls
    :meth:`predict_graph`.

    Parameters
    ----------
    kind:
        ``"xgb"`` (gradient-boosted trees) or ``"linear"`` (ridge).
    target:
        Target name or spec.
    max_v:
        Optional §IV training clamp (same semantics as the GNN trainer).
    """

    def __init__(
        self,
        kind: str = "xgb",
        target: str | TargetSpec = "CAP",
        max_v: float | None = None,
        seed: int = 0,
        log_device_targets: bool = True,
        **model_kwargs,
    ):
        if kind not in ("xgb", "linear"):
            raise ModelError(f"unknown baseline kind {kind!r}")
        self.kind = kind
        self.spec = target if isinstance(target, TargetSpec) else target_by_name(target)
        self.max_v = max_v
        self.seed = seed
        # same treatment as the GNN trainer so comparisons stay fair
        self.log_device_targets = log_device_targets
        self.model_kwargs = model_kwargs
        self.model = None
        self.target_scaler: TargetScaler | None = None
        self._scaler: FeatureScaler | None = None

    def fit(self, bundle: DatasetBundle) -> "BaselinePredictor":
        records = bundle.records("train")
        xs, ys = [], []
        for record in records:
            _, X = baseline_features(record.graph, bundle.scaler, self.spec)
            _, y = record.target_arrays(self.spec)
            xs.append(X)
            ys.append(y)
        X = np.concatenate(xs, axis=0)
        y = np.concatenate(ys)
        if self.max_v is not None:
            keep = y <= self.max_v
            if not keep.any():
                raise ModelError(f"max_v={self.max_v} removed every sample")
            X, y = X[keep], y[keep]
        self.target_scaler, _ = resolve_target_scaler(
            self.spec,
            y,
            max_v=self.max_v,
            log_device_targets=self.log_device_targets,
        )
        if self.kind == "xgb":
            self.model = GradientBoostedTrees(seed=self.seed, **self.model_kwargs)
        else:
            self.model = RidgeRegression(**self.model_kwargs)
        self.model.fit(X, self.target_scaler.transform(y))
        self._scaler = bundle.scaler
        return self

    def predict_graph(self, graph: HeteroGraph) -> tuple[np.ndarray, np.ndarray]:
        """(node_ids, SI-unit predictions) for a graph, clamped at zero."""
        if self.model is None:
            raise ModelError("baseline is not fitted; call fit() first")
        ids, X = baseline_features(graph, self._scaler, self.spec)
        scaled = self.model.predict(X)
        return ids, np.maximum(self.target_scaler.inverse(scaled), 0.0)
