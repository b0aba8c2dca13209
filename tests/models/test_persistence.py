"""Tests for model persistence and the deployment prediction path."""

import numpy as np
import pytest

from repro.api import collect, predict_one
from repro.circuits.generators.analog import two_stage_opamp
from repro.errors import ModelError
from repro.models import TargetPredictor, TrainConfig


@pytest.fixture(scope="module")
def fitted(tiny_bundle):
    config = TrainConfig(epochs=6, embed_dim=8, num_layers=2, run_seed=0)
    return TargetPredictor("paragraph", "CAP", config).fit(tiny_bundle)


class TestSaveLoad:
    def test_roundtrip_predictions_identical(self, fitted, tiny_bundle, tmp_path):
        path = tmp_path / "cap.npz"
        fitted.save(path)
        loaded = TargetPredictor.load(path)
        record = tiny_bundle.records("test")[0]
        _, original = collect(fitted, [record])
        _, restored = collect(loaded, [record])
        np.testing.assert_allclose(original, restored)

    def test_loaded_metadata(self, fitted, tmp_path):
        path = tmp_path / "cap.npz"
        fitted.save(path)
        loaded = TargetPredictor.load(path)
        assert loaded.conv == "paragraph"
        assert loaded.spec.name == "CAP"
        assert loaded.target_scaler.scale == fitted.target_scaler.scale

    def test_save_unfitted_raises(self, tmp_path):
        predictor = TargetPredictor("paragraph", "CAP")
        with pytest.raises(ModelError):
            predictor.save(tmp_path / "x.npz")

    def test_conv_kwargs_survive(self, tiny_bundle, tmp_path):
        config = TrainConfig(
            epochs=4, embed_dim=8, num_layers=2,
            conv_kwargs={"use_attention": False},
        )
        predictor = TargetPredictor("paragraph", "CAP", config).fit(tiny_bundle)
        path = tmp_path / "m.npz"
        predictor.save(path)
        loaded = TargetPredictor.load(path)
        record = tiny_bundle.records("test")[0]
        _, a = collect(predictor, [record])
        _, b = collect(loaded, [record])
        np.testing.assert_allclose(a, b)

    def test_device_target_roundtrip(self, tiny_bundle, tmp_path):
        config = TrainConfig(epochs=4, embed_dim=8, num_layers=2)
        predictor = TargetPredictor("paragraph", "SA", config).fit(tiny_bundle)
        path = tmp_path / "sa.npz"
        predictor.save(path)
        loaded = TargetPredictor.load(path)
        record = tiny_bundle.records("test")[0]
        _, a = collect(predictor, [record])
        _, b = collect(loaded, [record])
        np.testing.assert_allclose(a, b)

    def test_max_v_restored(self, tiny_bundle, tmp_path):
        """Regression: a reloaded CAP range model must keep its §IV ceiling,
        otherwise a saved ensemble cannot be reassembled."""
        config = TrainConfig(epochs=4, embed_dim=8, num_layers=2, max_v=1e-15)
        predictor = TargetPredictor("paragraph", "CAP", config).fit(tiny_bundle)
        path = tmp_path / "range.npz"
        predictor.save(path)
        loaded = TargetPredictor.load(path)
        assert loaded.config.max_v == 1e-15
        assert loaded.target_scaler.scale == 1e-15

    def test_training_config_restored(self, tiny_bundle, tmp_path):
        """Regression: weight_decay / log_device_targets used to be dropped
        by load(), so a reloaded model retrained differently."""
        config = TrainConfig(
            epochs=4, embed_dim=8, num_layers=2,
            weight_decay=0.05, log_device_targets=False, lr=0.02, run_seed=7,
        )
        predictor = TargetPredictor("paragraph", "SA", config).fit(tiny_bundle)
        path = tmp_path / "sa.npz"
        predictor.save(path)
        loaded = TargetPredictor.load(path)
        assert loaded.config.weight_decay == 0.05
        assert loaded.config.log_device_targets is False
        assert loaded.config.lr == 0.02
        assert loaded.config.run_seed == 7
        assert loaded.config.epochs == 4

    def test_log_scaler_floor_restored(self, tiny_bundle, tmp_path):
        config = TrainConfig(epochs=4, embed_dim=8, num_layers=2)
        predictor = TargetPredictor("paragraph", "SA", config).fit(tiny_bundle)
        path = tmp_path / "sa.npz"
        predictor.save(path)
        loaded = TargetPredictor.load(path)
        assert loaded.target_scaler.floor == predictor.target_scaler.floor

    def test_explicit_fc_depth_restored(self, tiny_bundle, tmp_path):
        config = TrainConfig(epochs=2, embed_dim=8, num_layers=2, num_fc_layers=0)
        predictor = TargetPredictor("paragraph", "CAP", config).fit(tiny_bundle)
        path = tmp_path / "linear.npz"
        predictor.save(path)
        loaded = TargetPredictor.load(path)
        assert len(loaded.model.heads["CAP"].readout.layers) == 1
        record = tiny_bundle.records("test")[0]
        _, a = collect(predictor, [record])
        _, b = collect(loaded, [record])
        np.testing.assert_allclose(a, b)


class TestPredictCircuit:
    def test_predict_circuit_no_layout_needed(self, fitted):
        """Deployment path: schematic in, predictions out."""
        opamp = two_stage_opamp()
        predictions = predict_one(fitted, opamp).named("CAP")
        expected = {n.name for n in opamp.signal_nets()}
        assert set(predictions) == expected
        assert all(v >= 0 for v in predictions.values())

    def test_predict_circuit_matches_record_path(self, fitted, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        via_record = predict_one(fitted, record.graph).named("CAP")
        via_circuit = predict_one(fitted, record.circuit).named("CAP")
        assert via_record == via_circuit
