"""Prediction models: ParaGraph, GNN baselines, XGBoost/linear baselines."""

from repro.models.baselines import BaselinePredictor, baseline_features
from repro.models.convs import (
    GATConv,
    GCNConv,
    GNN_MODEL_NAMES,
    ParaGraphConv,
    RGCNConv,
    SageConv,
    make_conv,
)
from repro.models.encoder import NodeTypeEncoder
from repro.models.gbdt import GradientBoostedTrees, RegressionTree
from repro.models.inputs import GraphInputs, MegaBatch
from repro.models.linreg import RidgeRegression
from repro.models.multitask import MultiTaskModel, ReadoutHead, SharedTrunk
from repro.models.trainer import TargetPredictor, TrainConfig, TrainHistory
from repro.models.uncertainty import SeedEnsemblePredictor, UncertainPrediction

__all__ = [
    "BaselinePredictor",
    "baseline_features",
    "GATConv",
    "GCNConv",
    "GNN_MODEL_NAMES",
    "ParaGraphConv",
    "RGCNConv",
    "SageConv",
    "make_conv",
    "NodeTypeEncoder",
    "GradientBoostedTrees",
    "RegressionTree",
    "GraphInputs",
    "MegaBatch",
    "MultiTaskModel",
    "ReadoutHead",
    "SharedTrunk",
    "RidgeRegression",
    "TargetPredictor",
    "TrainConfig",
    "TrainHistory",
    "SeedEnsemblePredictor",
    "UncertainPrediction",
]
