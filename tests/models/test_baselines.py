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
        # with min 5 per leaf and 10 samples, at most one split happened
        assert len(_split_nodes(tree)) <= 1

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).random((30, 2))
        y = np.full(30, 7.0)
        tree = RegressionTree().fit(X, y)
        assert len(tree.value) == 1 and tree.left[0] == tree.right[0] == 0
        np.testing.assert_allclose(tree.predict(X), 7.0)

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            RegressionTree().predict(np.ones((1, 1)))

    def test_no_features_is_one_leaf(self):
        y = np.arange(12, dtype=float)
        tree = RegressionTree().fit(np.empty((12, 0)), y)
        assert np.array_equal(tree.predict(np.empty((3, 0))), np.full(3, y.mean()))


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

    def test_device_features_equal_the_per_node_rows(self, tiny_bundle):
        """One searchsorted per node type builds the rows one search per
        node did: each device's scaled features, then its one-hot."""
        from repro.circuits import devices as dev
        from repro.data import target_by_name

        spec = target_by_name("SA")
        for record in tiny_bundle.records("train") + tiny_bundle.records("test"):
            graph = record.graph
            scaled = tiny_bundle.scaler.transform(graph)
            ids, X = baseline_features(graph, tiny_bundle.scaler, spec)
            rows = []
            for node_id in ids:
                type_name = graph.node_type_of[node_id]
                row = int(np.searchsorted(graph.nodes_of_type[type_name], node_id))
                onehot = [1.0, 0.0] if type_name == dev.TRANSISTOR else [0.0, 1.0]
                rows.append(np.concatenate([scaled[type_name][row], onehot]))
            oracle = np.asarray(rows, dtype=np.float64)
            assert X.dtype == oracle.dtype and np.array_equal(X, oracle)

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


def _split_nodes(tree):
    """Indices of a fitted tree's splits; a leaf is its own child."""
    return np.flatnonzero(tree.left != np.arange(len(tree.left)))


def _walk_each_row(tree, X):
    """The per-row traversal: one root-to-leaf walk per row."""
    out = np.empty(len(X))
    for i, row in enumerate(X):
        node = 0
        while tree.left[node] != node:
            goes_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if goes_left else tree.right[node]
        out[i] = tree.value[node]
    return out


class TestTreeRouting:
    def test_predict_equals_per_row_walk(self):
        """Routing every row at once answers exactly what walking each
        row does, on threshold ties and NaN rows too."""
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(300, 3)).astype(float)
        y = X[:, 0] * 2.0 - X[:, 1] + rng.normal(0.0, 0.1, 300)
        gbdt = GradientBoostedTrees(n_estimators=20, max_depth=4).fit(X, y)
        thresholds = [
            threshold
            for tree in gbdt.trees_
            for threshold in tree.threshold[_split_nodes(tree)]
        ]
        queries = rng.normal(1.5, 1.5, size=(200, 3))
        queries[:20] = np.array(thresholds[:20])[:, None]  # ties
        queries[20:40, 1] = np.nan
        queries[40:50] = np.nan
        for tree in gbdt.trees_:
            for rows in (X, queries, queries[:0], np.empty(0)):
                assert np.array_equal(tree.predict(rows), _walk_each_row(tree, rows))
        oracle = np.full(len(queries), gbdt.base_)
        for tree in gbdt.trees_:
            oracle += gbdt.learning_rate * _walk_each_row(tree, queries)
        assert np.array_equal(gbdt.predict(queries), oracle)

    @pytest.mark.parametrize("max_depth, n_rows", [(4, 300), (2, 25), (3, 40)])
    def test_stacked_trees_equal_the_per_tree_loop(self, max_depth, n_rows):
        """Descending every (tree, row) pair together and adding the leaf
        values in tree order is the per-tree loop bit for bit, with trees
        of different sizes (stumps, leaves) in one ensemble."""
        rng = np.random.default_rng(max_depth)
        X = rng.normal(size=(n_rows, 3))
        y = np.where(X[:, 0] > 0, 1.0, 0.0) + 0.1 * rng.normal(size=n_rows)
        gbdt = GradientBoostedTrees(
            n_estimators=30, max_depth=max_depth, subsample=0.5, seed=1
        ).fit(X, y)
        assert len({len(tree.value) for tree in gbdt.trees_}) > 1
        queries = rng.normal(size=(50, 3))
        queries[:5, 0] = np.nan
        for rows in (X, queries, queries[:1], queries[:0], np.empty(0)):
            oracle = np.full(len(rows), gbdt.base_)
            for tree in gbdt.trees_:
                oracle += gbdt.learning_rate * tree.predict(rows)
            assert np.array_equal(gbdt.predict(rows), oracle)

    def test_feature_gains_equal_the_per_split_sum(self):
        """One bincount adds each feature's split gains in pre-order,
        exactly as summing them split by split does."""
        X, y = _toy_regression(n=300, seed=4)
        gbdt = GradientBoostedTrees(n_estimators=20, max_depth=4).fit(X, y)
        for tree in gbdt.trees_:
            oracle = np.zeros(4)
            for node in _split_nodes(tree):
                oracle[tree.feature[node]] += tree.gain[node]
            assert np.array_equal(tree.feature_gains(4), oracle)


def _best_split_loop(tree, X, y):
    """The per-candidate scan ``RegressionTree._best_split`` replaced,
    kept as the oracle of the split it chooses: the first maximum within
    a feature, and a strictly larger gain across features."""
    n, d = X.shape
    total_sum = y.sum()
    total_sq = (y * y).sum()
    parent_sse = total_sq - total_sum**2 / n
    best = None
    best_gain = tree.min_gain
    for feature in range(d):
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        for i in range(tree.min_samples_leaf, n - tree.min_samples_leaf + 1):
            if i < n and xs[i - 1] == xs[i]:
                continue
            if i >= n:
                break
            left_sse = csq[i - 1] - csum[i - 1] ** 2 / i
            right_sum = total_sum - csum[i - 1]
            right_sse = (total_sq - csq[i - 1]) - right_sum**2 / (n - i)
            gain = parent_sse - left_sse - right_sse
            if gain > best_gain:
                best_gain = gain
                best = (feature, (xs[i - 1] + xs[i]) / 2.0, gain)
    return best


class TestSplitSearch:
    @pytest.mark.parametrize("seed", range(8))
    def test_chooses_the_per_candidate_scans_split(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 120))
        X = rng.integers(0, 6, size=(n, 5)).astype(float)  # equal neighbours
        X[:, 1] = 3.0  # a constant feature has no candidate
        X[:, 3] = X[:, 0]  # a tie across features goes to the first
        y = rng.integers(-3, 4, size=n).astype(float)  # ties within one
        for leaf in (1, 3, 5):
            tree = RegressionTree(min_samples_leaf=leaf)
            got, want = tree._best_split(X, y), _best_split_loop(tree, X, y)
            if want is None:
                assert got is None
                continue
            # integer data: every sum and square is exact in both scans
            assert got == want
            assert got[0] not in (1, 3)

    def test_grows_the_trees_the_per_candidate_scan_grows(self, monkeypatch):
        """Boosted on real-valued data, the two scans choose the same
        splits; a stored gain may differ in the last place, since a numpy
        scalar squares through ``pow`` and an array exactly."""
        X, y = _toy_regression(n=300, seed=3)
        X[:, 2] = np.round(X[:, 2], 1)  # equal neighbours
        fast = GradientBoostedTrees(n_estimators=15, max_depth=4).fit(X, y)
        monkeypatch.setattr(RegressionTree, "_best_split", _best_split_loop)
        slow = GradientBoostedTrees(n_estimators=15, max_depth=4).fit(X, y)
        for got, want in zip(fast.trees_, slow.trees_):
            for name in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            np.testing.assert_allclose(got.gain, want.gain, rtol=1e-12, atol=0.0)
        assert np.array_equal(fast.predict(X), slow.predict(X))
