"""Integration smoke tests: every experiment driver runs end-to-end.

These use a minimal configuration (tiny dataset, few epochs) — they verify
plumbing and output structure, not model quality (that's the benchmarks'
job).
"""

import numpy as np
import pytest

from repro.analysis import experiments as exp


@pytest.fixture(scope="module")
def config():
    return exp.ExperimentConfig(
        dataset_seed=0, dataset_scale=0.08, epochs=3, fig6_epochs=3
    )


@pytest.fixture(scope="module")
def bundle(config):
    return exp.load_bundle(config)


class TestDrivers:
    def test_table4(self, config, bundle):
        result = exp.experiment_table4(config, bundle)
        assert len(result.rows) == 22
        assert "Table IV" in result.render()

    def test_fig5(self, config, bundle):
        result = exp.experiment_fig5(config, bundle)
        assert len(result.model_rows) == 4  # 1fF/10fF/100fF/full
        assert result.ensemble_row["name"] == "ensemble"
        assert "ensemble" in result.render()

    def test_fig6(self, config, bundle):
        result = exp.experiment_fig6(
            config, bundle, models=("linear", "xgb", "paragraph"), targets=("CAP",)
        )
        assert set(result.r2) == {"linear", "xgb", "paragraph"}
        assert np.isfinite(result.average_r2("paragraph"))
        assert "xgb" in result.render().lower()

    def test_fig7(self, config, bundle):
        result = exp.experiment_fig7(config, bundle, targets=("CAP", "SA"))
        assert [row["target"] for row in result.rows] == ["CAP", "SA"]

    def test_fig8(self, config, bundle):
        result = exp.experiment_fig8(config, bundle)
        assert len(result.rows) >= 1
        for row in result.rows:
            assert -1.0 <= row["agreement"] <= 1.0

    def test_table5(self, config, bundle):
        result = exp.experiment_table5(config, bundle)
        assert set(result.means) == set(exp.TABLE5_MODES)
        for mode in exp.TABLE5_MODES:
            assert sum(result.histograms[mode].values()) == 67
            assert result.means[mode] <= 10.0
        assert "Geometric Mean" in result.render()

    def test_layer_sweep(self, config, bundle):
        result = exp.experiment_layer_sweep(config, bundle, depths=(1, 2))
        assert [row["variant"] for row in result.rows] == ["L=1", "L=2"]

    def test_ingredients(self, config, bundle):
        result = exp.experiment_ingredients(config, bundle)
        assert len(result.rows) == 4

    def test_attention_heads(self, config, bundle):
        result = exp.experiment_attention_heads(config, bundle, heads=(1, 2))
        assert [row["variant"] for row in result.rows] == ["heads=1", "heads=2"]

    def test_resistance(self, config, bundle):
        result = exp.experiment_resistance(config, bundle)
        assert {row["variant"] for row in result.rows} == {
            "paragraph", "xgb", "linear"
        }


    def test_corner_robustness(self, config, bundle):
        result = exp.experiment_corner_robustness(config, bundle)
        assert [row["variant"] for row in result.rows] == ["typ", "cmin", "cmax"]
        assert all(np.isfinite(row["r2"]) for row in result.rows)
        assert "Corner robustness" in result.render()


class TestConfig:
    def test_from_env_scaling(self, monkeypatch):
        monkeypatch.setenv("PARAGRAPH_BENCH_SCALE", "0.5")
        cfg = exp.ExperimentConfig.from_env()
        base = exp.ExperimentConfig()
        assert cfg.epochs == round(base.epochs * 0.5)
        assert cfg.dataset_scale == pytest.approx(base.dataset_scale * 0.5)

    def test_from_env_floor(self, monkeypatch):
        monkeypatch.setenv("PARAGRAPH_BENCH_SCALE", "0.0001")
        cfg = exp.ExperimentConfig.from_env()
        assert cfg.epochs >= 5
        assert cfg.dataset_scale >= 0.05
