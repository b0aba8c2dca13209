"""Public-API snapshot: the supported surface, pinned.

If one of these tests fails, the public contract changed — either revert,
or update this snapshot *and* docs/api.md in the same change.
"""

import inspect

import repro
import repro.api
import repro.flows
import repro.models
import repro.serve

API_SURFACE = [
    "ApiError",
    "Engine",
    "EngineConfig",
    "GraphWork",
    "ModelAdapter",
    "ModelProvenance",
    "PredictionOptions",
    "PredictionRequest",
    "PredictionResult",
    "PredictionTiming",
    "TargetPrediction",
    "coerce_request",
    "collect",
    "create_engine",
    "evaluate",
    "make_adapter",
    "predict_one",
    "target_unit",
]

SERVE_SURFACE = [
    "BatchExecutor",
    "CachedGraph",
    "GraphCache",
    "ModelRegistry",
    "PoolConfig",
    "PredictionServer",
    "RegistryEntry",
    "ServeError",
    "ServeOverloadedError",
    "ServeTimeoutError",
    "ServerPool",
    "artifact_version",
    "circuit_fingerprint",
    "create_pool",
    "load_model",
    "request_from_json",
    "scaler_fingerprint",
]

FLOWS_SURFACE = [
    "ConsoleProgressReporter",
    "JsonlMetricsWriter",
    "MergedInputsCache",
    "MultiTargetModel",
    "PrelayoutReport",
    "RuntimeConfig",
    "TrainCallback",
    "TrainPlan",
    "TrainResult",
    "load_checkpoint",
    "prelayout_report",
    "save_checkpoint",
    "train",
]

MODELS_SURFACE = [
    "BaselinePredictor",
    "GATConv",
    "GCNConv",
    "GNN_MODEL_NAMES",
    "GradientBoostedTrees",
    "GraphInputs",
    "MegaBatch",
    "MultiTaskModel",
    "NodeTypeEncoder",
    "ParaGraphConv",
    "RGCNConv",
    "ReadoutHead",
    "RegressionTree",
    "RidgeRegression",
    "SageConv",
    "SeedEnsemblePredictor",
    "SharedTrunk",
    "TargetPredictor",
    "TrainConfig",
    "TrainHistory",
    "UncertainPrediction",
    "baseline_features",
    "make_conv",
]

TOP_LEVEL_SURFACE = [
    "ApiError",
    "BatchExecutor",
    "Engine",
    "EngineConfig",
    "GraphCache",
    "ModelProvenance",
    "ModelRegistry",
    "PredictionOptions",
    "PredictionRequest",
    "PredictionResult",
    "PredictionServer",
    "ReproError",
    "ServeError",
    "ServeOverloadedError",
    "ServeTimeoutError",
    "TargetPrediction",
    "__version__",
    "create_engine",
    "predict_one",
]


class TestSurfaceSnapshot:
    def test_api_all(self):
        assert sorted(repro.api.__all__) == API_SURFACE

    def test_serve_all(self):
        assert sorted(repro.serve.__all__) == SERVE_SURFACE

    def test_top_level_all(self):
        assert sorted(repro.__all__) == TOP_LEVEL_SURFACE

    def test_flows_all(self):
        assert sorted(repro.flows.__all__) == FLOWS_SURFACE

    def test_flows_lazy_table_matches_all(self):
        # PEP 562 lazy exports: every __all__ name must have a loader entry
        # and vice versa, or imports break only at attribute-access time.
        assert sorted(repro.flows._EXPORTS) == sorted(repro.flows.__all__)

    def test_models_all(self):
        assert sorted(repro.models.__all__) == MODELS_SURFACE

    def test_every_exported_name_resolves(self):
        for module in (repro, repro.api, repro.flows, repro.models, repro.serve):
            for name in module.__all__:
                assert getattr(module, name) is not None, (module.__name__, name)

    def test_dir_covers_all(self):
        for module in (repro, repro.api, repro.flows, repro.models, repro.serve):
            assert set(module.__all__) <= set(dir(module))

    def test_unknown_attribute_raises(self):
        import pytest

        for module in (repro, repro.api, repro.flows, repro.serve):
            with pytest.raises(AttributeError):
                module.does_not_exist


class TestSignatureSnapshot:
    """Keyword names are API: callers rely on them."""

    def _params(self, callable_):
        return list(inspect.signature(callable_).parameters)

    def test_engine_predict(self):
        assert self._params(repro.api.Engine.predict) == [
            "self", "request", "targets", "model", "use_cache",
        ]

    def test_engine_predict_batch(self):
        assert self._params(repro.api.Engine.predict_batch) == [
            "self", "requests", "timeout_s",
        ]

    def test_create_engine(self):
        assert self._params(repro.api.create_engine) == [
            "models", "cache_size", "max_batch", "queue_depth",
            "workers", "timeout_s", "dtype", "cache",
        ]

    def test_predict_one(self):
        assert self._params(repro.api.predict_one) == [
            "model", "source", "targets",
        ]

    def test_collect_and_evaluate(self):
        assert self._params(repro.api.collect) == ["model", "records", "target"]
        assert self._params(repro.api.evaluate) == [
            "model", "records", "target", "mape_eps",
        ]

    def test_prediction_request_fields(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(repro.api.PredictionRequest)]
        assert names == [
            "circuit", "netlist_path", "netlist_text", "name",
            "targets", "model", "options", "request_id",
        ]

    def test_engine_config_fields(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(repro.api.EngineConfig)]
        assert names == [
            "cache_size", "max_batch", "queue_depth", "workers", "timeout_s",
            "dtype",
        ]

    def test_flows_train(self):
        assert self._params(repro.flows.train) == [
            "bundle", "plan", "inputs_cache",
        ]

    def test_train_plan_fields(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(repro.flows.TrainPlan)]
        assert names == [
            "targets", "conv", "config", "trunk",
            "loss_weights", "runtime", "parallel_workers", "resume_from",
        ]
