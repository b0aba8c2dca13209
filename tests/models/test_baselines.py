"""Tests for ridge regression, GBDT and the baseline predictor wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import collect, evaluate
from repro.errors import ModelError
from repro.models import (
    BaselinePredictor,
    GradientBoostedTrees,
    RegressionTree,
    RidgeRegression,
    baseline_features,
)


def _toy_regression(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 0.5 + 0.01 * rng.standard_normal(n)
    return X, y


class TestRidge:
    def test_recovers_linear_function(self):
        X, y = _toy_regression()
        model = RidgeRegression().fit(X, y)
        np.testing.assert_allclose(model.coef_, [2.0, -1.0, 0.0], atol=0.05)
        np.testing.assert_allclose(model.intercept_, 0.5, atol=0.05)

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            RidgeRegression().predict(np.ones((1, 2)))

    def test_bad_inputs_raise(self):
        with pytest.raises(ModelError):
            RidgeRegression().fit(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            RidgeRegression(alpha=-1)

    def test_heavy_regularization_shrinks(self):
        X, y = _toy_regression()
        light = RidgeRegression(alpha=1e-6).fit(X, y)
        heavy = RidgeRegression(alpha=1e4).fit(X, y)
        assert np.abs(heavy.coef_).sum() < np.abs(light.coef_).sum()


class TestRegressionTree:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2, min_samples_leaf=2).fit(X, y)
        pred = tree.predict(X)
        assert np.abs(pred - y).mean() < 0.05

    def test_respects_min_samples_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.arange(10, dtype=float)
        tree = RegressionTree(max_depth=10, min_samples_leaf=5).fit(X, y)

        def leaves(node):
            if node.is_leaf:
                return [node]
            return leaves(node.left) + leaves(node.right)

        # with min 5 per leaf and 10 samples, at most one split happened
        assert len(leaves(tree.root)) <= 2

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).random((30, 2))
        y = np.full(30, 7.0)
        tree = RegressionTree().fit(X, y)
        assert tree.root.is_leaf
        np.testing.assert_allclose(tree.predict(X), 7.0)

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            RegressionTree().predict(np.ones((1, 1)))


class TestGBDT:
    def test_beats_single_tree_on_smooth_function(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-3, 3, size=(300, 2))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
        gbdt = GradientBoostedTrees(n_estimators=80, max_depth=3).fit(X, y)
        tree = RegressionTree(max_depth=3).fit(X, y)
        gbdt_err = np.abs(gbdt.predict(X) - y).mean()
        tree_err = np.abs(tree.predict(X) - y).mean()
        assert gbdt_err < tree_err

    def test_shrinkage_effect(self):
        X, y = _toy_regression()
        few = GradientBoostedTrees(n_estimators=2, learning_rate=0.1).fit(X, y)
        many = GradientBoostedTrees(n_estimators=100, learning_rate=0.1).fit(X, y)
        assert np.abs(many.predict(X) - y).mean() < np.abs(few.predict(X) - y).mean()

    def test_subsample_validation(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(subsample=0.0)

    def test_subsample_deterministic_with_seed(self):
        X, y = _toy_regression()
        a = GradientBoostedTrees(n_estimators=10, subsample=0.7, seed=3).fit(X, y)
        b = GradientBoostedTrees(n_estimators=10, subsample=0.7, seed=3).fit(X, y)
        np.testing.assert_allclose(a.predict(X), b.predict(X))

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            GradientBoostedTrees().predict(np.ones((1, 1)))

    def test_bad_inputs_raise(self):
        with pytest.raises(ModelError):
            GradientBoostedTrees().fit(np.ones(5), np.ones(5))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), n=st.integers(30, 120))
def test_property_gbdt_reduces_training_error(seed, n):
    """Boosting never ends worse than the constant-mean predictor on train."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    y = rng.standard_normal(n)
    model = GradientBoostedTrees(n_estimators=20, max_depth=2).fit(X, y)
    baseline = np.abs(y - y.mean()).mean()
    assert np.abs(model.predict(X) - y).mean() <= baseline + 1e-9


class TestBaselinePredictor:
    def test_unknown_kind_raises(self):
        with pytest.raises(ModelError):
            BaselinePredictor("forest", "CAP")

    def test_unfitted_predict_raises(self, tiny_bundle):
        with pytest.raises(ModelError):
            collect(BaselinePredictor("xgb", "CAP"), tiny_bundle.records("test")[:1])

    def test_cap_features_are_fanout_only(self, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        from repro.data import CAP_TARGET

        ids, X = baseline_features(record.graph, tiny_bundle.scaler, CAP_TARGET)
        assert X.shape == (len(ids), 1)  # paper Table II: net feature is N

    def test_device_features_include_onehot(self, tiny_bundle):
        record = tiny_bundle.train["t2"]
        from repro.data import target_by_name

        ids, X = baseline_features(
            record.graph, tiny_bundle.scaler, target_by_name("SA")
        )
        assert X.shape[1] == 6  # 4 Table II features + thin/thick one-hot
        assert set(np.unique(X[:, 4:])) <= {0.0, 1.0}

    @pytest.mark.parametrize("kind", ["xgb", "linear"])
    def test_fit_predict_evaluate(self, tiny_bundle, kind):
        predictor = BaselinePredictor(kind, "SA").fit(tiny_bundle)
        metrics = evaluate(predictor, tiny_bundle.records("test"))
        assert np.isfinite(metrics["r2"])
        _, values = collect(predictor, tiny_bundle.records("test")[:1])
        assert (values >= 0).all()

    def test_max_v_clamp(self, tiny_bundle):
        predictor = BaselinePredictor("xgb", "CAP", max_v=10e-15).fit(tiny_bundle)
        assert predictor.target_scaler.scale == 10e-15
        with pytest.raises(ModelError):
            BaselinePredictor("xgb", "CAP", max_v=1e-30).fit(tiny_bundle)

    def test_xgb_learns_sa_better_than_linear(self, tiny_bundle):
        """SA depends non-linearly on (NF, NFIN); trees should beat ridge."""
        xgb = BaselinePredictor("xgb", "SA").fit(tiny_bundle)
        lin = BaselinePredictor("linear", "SA").fit(tiny_bundle)
        records = tiny_bundle.records("test")
        assert evaluate(xgb, records)["mae"] <= evaluate(lin, records)["mae"] * 1.1
