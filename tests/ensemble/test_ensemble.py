"""Tests for ensemble modeling (paper §IV, Algorithm 2)."""

import copy

import numpy as np
import pytest

from repro.api import collect, evaluate, predict_one
from repro.ensemble import (
    CapacitanceEnsemble,
    RangeModel,
    combine_predictions,
    train_capacitance_ensemble,
)
from repro.errors import ModelError
from repro.models import TrainConfig


class TestCombine:
    """Algorithm 2 on synthetic predictions."""

    def test_low_model_kept_when_high_predicts_small(self):
        combined = combine_predictions(
            [np.array([0.5e-15]), np.array([0.8e-15])], [1e-15, 10e-15]
        )
        np.testing.assert_allclose(combined, [0.5e-15])

    def test_high_model_wins_above_lower_ceiling(self):
        """Paper's example: the 10fF model predicting 2.5fF (> 1fF ceiling)
        is preferred over the 1fF model."""
        combined = combine_predictions(
            [np.array([0.9e-15]), np.array([2.5e-15])], [1e-15, 10e-15]
        )
        np.testing.assert_allclose(combined, [2.5e-15])

    def test_cascade_through_three_models(self):
        predictions = [
            np.array([0.5e-15, 0.9e-15, 0.7e-15]),
            np.array([0.8e-15, 5e-15, 3e-15]),
            np.array([9e-15, 8e-15, 50e-15]),
        ]
        combined = combine_predictions(predictions, [1e-15, 10e-15, 100e-15])
        # col0: model2 predicts 0.8 < 1fF, model3 predicts 9 < 10fF -> 0.5
        # col1: model2 5fF > 1fF -> 5; model3 8 < 10fF stays
        # col2: model3 predicts 50 > 10fF -> 50
        np.testing.assert_allclose(combined, [0.5e-15, 5e-15, 50e-15])

    def test_validation_errors(self):
        with pytest.raises(ModelError):
            combine_predictions([], [])
        with pytest.raises(ModelError):
            combine_predictions([np.ones(2)], [1.0, 2.0])
        with pytest.raises(ModelError):
            combine_predictions([np.ones(2), np.ones(2)], [2.0, 1.0])


class _Unsaveable:
    """A member that is not a fitted predictor."""


class TestEnsembleObject:
    """The ensemble predicts through its adapter (``repro.api``), which
    applies Algorithm 2 to every member's CAP answer."""

    def test_unordered_models_rejected(self):
        with pytest.raises(ModelError):
            CapacitanceEnsemble(
                models=[
                    RangeModel(10e-15, _Unsaveable()),
                    RangeModel(1e-15, _Unsaveable()),
                ]
            )

    def test_empty_ensemble_rejected(self, tiny_bundle):
        ens = CapacitanceEnsemble(models=[])
        with pytest.raises(ModelError, match="no models"):
            collect(ens, tiny_bundle.records("test")[:1])

    def test_mismatched_ids_rejected(self, api_ensemble_model, tiny_bundle):
        from repro.data.targets import TargetSpec

        low, full = (member.predictor for member in api_ensemble_model.models)
        # a CAP head read off the device population instead of the nets
        devices = copy.copy(low)
        devices.specs = [TargetSpec("CAP", "device")]
        ens = CapacitanceEnsemble(
            models=[
                RangeModel(1e-15, devices),
                RangeModel(float("inf"), full),
            ]
        )
        with pytest.raises(ModelError, match="disagree on node ids"):
            collect(ens, tiny_bundle.records("test")[:1])

    def test_predict_combines(self, api_ensemble_model, tiny_bundle):
        records = tiny_bundle.records("test")
        _, combined = collect(api_ensemble_model, records)
        members = api_ensemble_model.models
        expected = combine_predictions(
            [collect(member.predictor, records)[1] for member in members],
            [member.max_v for member in members],
        )
        np.testing.assert_array_equal(combined, expected)


class TestTrainedEnsemble:
    @pytest.fixture(scope="class")
    def trained(self, tiny_bundle):
        return train_capacitance_ensemble(
            tiny_bundle,
            max_vs=(1e-15, 10e-15),
            config=TrainConfig(epochs=25, embed_dim=8, num_layers=2, run_seed=0),
        )

    def test_member_count_and_order(self, trained):
        assert len(trained.models) == 3  # 2 range + full
        ceilings = [m.max_v for m in trained.models]
        assert ceilings == sorted(ceilings)
        assert ceilings[-1] == float("inf")

    def test_predict_named_covers_nets(self, trained, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        named = predict_one(trained, record).named("CAP")
        assert set(named) == {n.name for n in record.circuit.signal_nets()}

    def test_ensemble_not_worse_than_full_range_on_small_caps(
        self, trained, tiny_bundle
    ):
        """§IV's claim, restricted to the small-cap population."""
        records = tiny_bundle.records("test")
        truth, combined = collect(trained, records)
        truth_full, pred_full = collect(trained.models[-1].predictor, records)
        small = truth < 1e-15
        if small.sum() >= 5:
            err_ens = np.abs(combined[small] - truth[small]).mean()
            err_full = np.abs(pred_full[small] - truth_full[small]).mean()
            assert err_ens <= err_full * 1.5

    def test_evaluate_keys(self, trained, tiny_bundle):
        metrics = evaluate(trained, tiny_bundle.records("test"))
        assert set(metrics) == {"r2", "mae", "mape"}


class TestEnsemblePersistence:
    @pytest.fixture(scope="class")
    def trained(self, tiny_bundle):
        return train_capacitance_ensemble(
            tiny_bundle,
            max_vs=(1e-15, 10e-15),
            config=TrainConfig(epochs=6, embed_dim=8, num_layers=2, run_seed=0),
        )

    def test_roundtrip_predictions_identical(self, trained, tiny_bundle, tmp_path):
        directory = tmp_path / "ensemble"
        trained.save_dir(directory)
        loaded = CapacitanceEnsemble.load_dir(directory)
        record = tiny_bundle.records("test")[0]
        names_a, a = predict_one(trained, record).arrays("CAP")
        names_b, b = predict_one(loaded, record).arrays("CAP")
        assert names_a == names_b
        np.testing.assert_allclose(a, b)

    def test_ceilings_and_max_v_restored(self, trained, tiny_bundle, tmp_path):
        directory = tmp_path / "ensemble"
        trained.save_dir(directory)
        loaded = CapacitanceEnsemble.load_dir(directory)
        assert [m.max_v for m in loaded.models] == [1e-15, 10e-15, float("inf")]
        # each member's training ceiling survives (None = full range)
        assert [m.predictor.config.max_v for m in loaded.models] == [
            1e-15, 10e-15, None,
        ]

    def test_manifest_lists_members_in_order(self, trained, tmp_path):
        import json

        directory = tmp_path / "ensemble"
        trained.save_dir(directory)
        with open(directory / "ensemble.json") as handle:
            manifest = json.load(handle)
        assert [m["max_v"] for m in manifest["members"]] == [1e-15, 10e-15, None]

    def test_load_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ModelError):
            CapacitanceEnsemble.load_dir(tmp_path)

    def test_save_empty_ensemble_raises(self, tmp_path):
        with pytest.raises(ModelError):
            CapacitanceEnsemble(models=[]).save_dir(tmp_path / "x")

    def test_save_unsaveable_member_raises(self, tmp_path):
        ens = CapacitanceEnsemble(
            models=[RangeModel(float("inf"), _Unsaveable())]
        )
        with pytest.raises(ModelError):
            ens.save_dir(tmp_path / "x")
