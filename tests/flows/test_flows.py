"""Tests for high-level flows: multi-target training, reports, run stats."""

import numpy as np
import pytest

from repro.analysis.runs import aggregate_runs
from repro.circuits.generators.analog import ota_5t
from repro.errors import ModelError, ReproError
from repro.api import predict_one
from repro.flows import MultiTargetModel, TrainPlan, prelayout_report, train
from repro.models import TrainConfig


@pytest.fixture(scope="module")
def multi_model(tiny_bundle):
    plan = TrainPlan(
        targets=("CAP", "SA", "RES"),
        config=TrainConfig(epochs=4, embed_dim=8, num_layers=2),
    )
    return train(tiny_bundle, plan).model


class TestMultiTargetModel:
    def test_training_produces_all_targets(self, multi_model):
        assert set(multi_model.predictors) == {"CAP", "SA", "RES"}

    def test_predict_all(self, multi_model):
        circuit = ota_5t()
        result = predict_one(multi_model, circuit)
        predictions = {name: result.named(name) for name in result.targets}
        assert set(predictions) == {"CAP", "SA", "RES"}
        nets = {n.name for n in circuit.signal_nets()}
        assert set(predictions["CAP"]) == nets
        assert set(predictions["RES"]) == nets
        assert len(predictions["SA"]) == 5  # 5 MOSFETs in the OTA

    def test_predictor_lookup(self, multi_model):
        assert multi_model.predictor("CAP").spec.name == "CAP"
        with pytest.raises(ModelError):
            multi_model.predictor("DP")

    def test_save_load_dir(self, multi_model, tmp_path):
        multi_model.save_dir(tmp_path / "models")
        loaded = MultiTargetModel.load_dir(tmp_path / "models")
        assert set(loaded.predictors) == set(multi_model.predictors)
        circuit = ota_5t()
        np.testing.assert_allclose(
            list(predict_one(loaded, circuit).named("CAP").values()),
            list(predict_one(multi_model, circuit).named("CAP").values()),
        )

    def test_load_empty_dir_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ModelError):
            MultiTargetModel.load_dir(tmp_path / "empty")


class TestPrelayoutReport:
    def test_report_structure(self, multi_model):
        circuit = ota_5t()
        report = prelayout_report(circuit, multi_model)
        assert report.circuit_name == "ota5t"
        assert len(report.net_rows) == len(circuit.signal_nets())
        assert len(report.device_rows) == 5
        assert all("RES" in row for row in report.net_rows)

    def test_render_contains_sections(self, multi_model):
        text = prelayout_report(ota_5t(), multi_model).render()
        assert "Net parasitics" in text
        assert "Device parameters" in text
        assert "designer CAP" in text

    def test_cap_only_model(self, tiny_bundle):
        plan = TrainPlan(
            targets=("CAP",), config=TrainConfig(epochs=3, embed_dim=8, num_layers=2)
        )
        model = train(tiny_bundle, plan).model
        report = prelayout_report(ota_5t(), model)
        assert report.device_rows == []
        assert "Device parameters" not in report.render()


class TestAggregateRuns:
    def test_statistics(self):
        stats = aggregate_runs(
            lambda seed: {"r2": float(seed), "mae": 2.0 * seed}, [1, 2, 3]
        )
        assert stats.n_runs == 3
        assert stats.mean("r2") == pytest.approx(2.0)
        assert stats.metrics["mae"]["max"] == 6.0
        assert "3 runs" in stats.render()

    def test_empty_seeds_raises(self):
        with pytest.raises(ReproError):
            aggregate_runs(lambda s: {}, [])

    def test_inconsistent_keys_raises(self):
        outputs = [{"a": 1.0}, {"b": 2.0}]

        def run(seed):
            return outputs[seed]

        with pytest.raises(ReproError):
            aggregate_runs(run, [0, 1])
