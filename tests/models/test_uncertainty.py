"""Tests for seed-ensemble uncertainty and GBDT feature importance."""

import numpy as np
import pytest

from repro.api import collect
from repro.errors import ModelError
from repro.models import GradientBoostedTrees, SeedEnsemblePredictor, TrainConfig


class TestSeedEnsemble:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_bundle):
        return SeedEnsemblePredictor(
            "paragraph", "CAP",
            TrainConfig(epochs=4, embed_dim=8, num_layers=2),
            n_members=3,
        ).fit(tiny_bundle)

    def test_needs_two_members(self):
        with pytest.raises(ModelError):
            SeedEnsemblePredictor(n_members=1)

    def test_unfitted_raises(self, tiny_bundle):
        ens = SeedEnsemblePredictor(n_members=2)
        with pytest.raises(ModelError):
            ens.predict_with_uncertainty(tiny_bundle.records("test")[0])

    def test_prediction_shapes(self, fitted, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        result = fitted.predict_with_uncertainty(record)
        n = len(record.graph.nodes_of_type["net"])
        assert len(result.node_ids) == n
        assert result.mean.shape == (n,)
        assert result.std.shape == (n,)
        assert len(result.names) == n

    def test_members_disagree_somewhere(self, fitted, tiny_bundle):
        """Different seeds give different models, so std > 0 somewhere."""
        result = fitted.predict_with_uncertainty(tiny_bundle.records("test")[0])
        assert result.std.max() > 0

    def test_relative_std_finite(self, fitted, tiny_bundle):
        result = fitted.predict_with_uncertainty(tiny_bundle.records("test")[0])
        assert np.isfinite(result.relative_std()).all()

    def test_mean_is_member_average(self, fitted, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        result = fitted.predict_with_uncertainty(record)
        manual = np.mean(
            [collect(member, [record])[1] for member in fitted.members], axis=0
        )
        np.testing.assert_allclose(result.mean, manual)


class TestFeatureImportance:
    def test_informative_feature_dominates(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((300, 3))
        y = 3.0 * X[:, 1] + 0.01 * rng.standard_normal(300)
        model = GradientBoostedTrees(n_estimators=30, max_depth=2).fit(X, y)
        importances = model.feature_importances(3)
        assert importances[1] > 0.8
        assert importances.sum() == pytest.approx(1.0)

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            GradientBoostedTrees().feature_importances(3)

    def test_constant_target_zero_gains(self):
        X = np.random.default_rng(0).random((50, 2))
        model = GradientBoostedTrees(n_estimators=5).fit(X, np.ones(50))
        importances = model.feature_importances(2)
        np.testing.assert_allclose(importances, 0.0)
