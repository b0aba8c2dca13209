"""Gradient-boosted regression trees (the paper's XGBoost baseline).

A from-scratch implementation: CART regression trees grown by exact greedy
variance-reduction splitting, boosted on squared-error residuals with
shrinkage.  Feature subsampling and a minimum-leaf guard keep it honest on
the small feature sets the baseline sees (paper: "based on node features
alone").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError


@dataclass
class _Node:
    """A tree node; leaves carry ``value``, internal nodes a split."""

    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    gain: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """CART regression tree with exact greedy splits."""

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        min_gain: float = 1e-12,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.root: _Node | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        self.root = self._grow(X, y, depth=0)
        return self

    def feature_gains(self, num_features: int) -> np.ndarray:
        """Total variance-reduction gain per feature (importance)."""
        gains = np.zeros(num_features)

        def walk(node: _Node | None) -> None:
            if node is None or node.is_leaf:
                return
            gains[node.feature] += node.gain
            walk(node.left)
            walk(node.right)

        walk(self.root)
        return gains

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float, float] | None:
        n, d = X.shape
        total_sum = y.sum()
        total_sq = (y * y).sum()
        parent_sse = total_sq - total_sum**2 / n
        # candidate i sends the first i sorted rows left, keeping at least
        # min_samples_leaf rows on each side
        left_n = np.arange(
            self.min_samples_leaf, min(n - self.min_samples_leaf + 1, n)
        )
        best = None
        best_gain = self.min_gain
        if not len(left_n):
            return best
        for feature in range(d):
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            ys = y[order]
            left_sum = np.cumsum(ys)[left_n - 1]
            left_sq = np.cumsum(ys * ys)[left_n - 1]
            left_sse = left_sq - left_sum**2 / left_n
            right_sum = total_sum - left_sum
            right_sse = (total_sq - left_sq) - right_sum**2 / (n - left_n)
            gains = parent_sse - left_sse - right_sse
            # cannot split between equal values
            gains[xs[left_n - 1] == xs[left_n]] = -np.inf
            # the first maximum of a feature; a later feature must beat it
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain = gains[k]
                i = left_n[k]
                best = (feature, (xs[i - 1] + xs[i]) / 2.0, gains[k])
        return best

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold, gain = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.gain = gain
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.root is None:
            raise ModelError("RegressionTree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.float64)

        # all rows at once: each split divides the indices of the rows
        # that reach it (NaN compares False and goes right)
        def route(node: _Node, rows: np.ndarray) -> None:
            if node.left is None or node.right is None:  # a leaf
                out[rows] = node.value
                return
            left = X[rows, node.feature] <= node.threshold
            route(node.left, rows[left])
            route(node.right, rows[~left])

        if len(X):  # an empty query may come as a 1-D array
            route(self.root, np.arange(len(X)))
        return out


class GradientBoostedTrees:
    """Squared-error gradient boosting with shrinkage and subsampling."""

    def __init__(
        self,
        n_estimators: int = 150,
        max_depth: int = 4,
        learning_rate: float = 0.1,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        seed: int = 0,
    ):
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.base_: float = 0.0
        self.trees_: list[RegressionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or len(X) != len(y):
            raise ModelError(f"bad GBDT inputs: X{X.shape}, y{y.shape}")
        rng = np.random.default_rng(self.seed)
        self.base_ = float(y.mean())
        self.trees_ = []
        pred = np.full(len(y), self.base_)
        for _ in range(self.n_estimators):
            residual = y - pred
            if self.subsample < 1.0:
                take = rng.random(len(y)) < self.subsample
                if take.sum() < 2 * self.min_samples_leaf:
                    take[:] = True
            else:
                take = np.ones(len(y), dtype=bool)
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(X[take], residual[take])
            update = tree.predict(X)
            pred = pred + self.learning_rate * update
            self.trees_.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise ModelError("GradientBoostedTrees is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.full(len(X), self.base_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(X)
        return out

    def feature_importances(self, num_features: int) -> np.ndarray:
        """Gain-based feature importances, normalised to sum to 1.

        Raises
        ------
        ModelError
            If the model is not fitted.
        """
        if not self.trees_:
            raise ModelError("GradientBoostedTrees is not fitted")
        gains = np.zeros(num_features)
        for tree in self.trees_:
            gains += tree.feature_gains(num_features)
        total = gains.sum()
        return gains / total if total > 0 else gains
