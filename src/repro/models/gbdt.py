"""Gradient-boosted regression trees (the paper's XGBoost baseline).

A from-scratch implementation: CART regression trees grown by exact greedy
variance-reduction splitting, boosted on squared-error residuals with
shrinkage.  Feature subsampling and a minimum-leaf guard keep it honest on
the small feature sets the baseline sees (paper: "based on node features
alone").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


def _descend(
    X: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    node: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Move each row of *X* from its start in *node* (one start per row,
    or one row of starts per tree) *depth* levels down flat trees.

    Every row moves one level per step; a leaf keeps the rows that reach
    it (NaN compares False and goes right).
    """
    # an empty query may come as a 1-D array, and a tree fitted on no
    # features is one leaf, whose column 0 such rows lack
    if X.size:
        rows = np.arange(len(X))
        for _ in range(depth):
            goes_left = X[rows, feature[node]] <= threshold[node]
            node = np.where(goes_left, left[node], right[node])
    return node


class RegressionTree:
    """CART regression tree with exact greedy splits.

    A fitted tree is six flat arrays indexed by node, in pre-order (node 0
    is the root): the ``feature`` and ``threshold`` of each split, its
    ``left`` and ``right`` child, the ``value`` (the mean target of the
    training rows that reach the node) and the split's ``gain`` (its
    variance reduction).  A leaf is its own left and right child, with
    feature 0 and gain 0, so a row that reaches one stays there.
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        min_gain: float = 1e-12,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        self.gain: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        # staticcheck: ignore[precision-policy] -- the XGBoost baseline
        # (Fig. 6) fits and predicts in float64, outside the GNN policy
        X = np.asarray(X, dtype=np.float64)
        # staticcheck: ignore[precision-policy] -- as X
        y = np.asarray(y, dtype=np.float64).ravel()
        nodes: list[tuple] = []
        self._grow(X, y, 0, nodes)
        feature, threshold, left, right, value, gain = zip(*nodes)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value)
        self.gain = np.array(gain)
        return self

    def _fitted(self) -> None:
        if self.value is None:
            raise ModelError("RegressionTree is not fitted")

    def feature_gains(self, num_features: int) -> np.ndarray:
        """Total variance-reduction gain per feature (importance)."""
        self._fitted()
        return np.bincount(self.feature, weights=self.gain, minlength=num_features)

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

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, nodes: list) -> int:
        """Append the subtree grown on these rows to *nodes* in pre-order
        and return the index of its root."""
        index = len(nodes)
        value = float(y.mean())
        nodes.append((0, 0.0, index, index, value, 0.0))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return index
        split = self._best_split(X, y)
        if split is None:
            return index
        feature, threshold, gain = split
        mask = X[:, feature] <= threshold
        left = self._grow(X[mask], y[mask], depth + 1, nodes)
        right = self._grow(X[~mask], y[~mask], depth + 1, nodes)
        nodes[index] = (feature, threshold, left, right, value, gain)
        return index

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._fitted()
        # staticcheck: ignore[precision-policy] -- as in fit
        X = np.asarray(X, dtype=np.float64)
        node = _descend(
            X, self.feature, self.threshold, self.left, self.right,
            np.zeros(len(X), dtype=np.intp), self.max_depth,
        )
        return self.value[node]


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
        # staticcheck: ignore[precision-policy] -- as RegressionTree.fit
        X = np.asarray(X, dtype=np.float64)
        # staticcheck: ignore[precision-policy] -- as X
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
        # staticcheck: ignore[precision-policy] -- as RegressionTree.fit
        X = np.asarray(X, dtype=np.float64)
        # the trees' flat arrays end to end: tree t's nodes start at
        # offsets[t], and every (tree, row) pair descends together
        trees = self.trees_
        offsets = np.cumsum([0] + [len(tree.value) for tree in trees[:-1]])
        node = _descend(
            X,
            np.concatenate([tree.feature for tree in trees]),
            np.concatenate([tree.threshold for tree in trees]),
            np.concatenate([tree.left + o for tree, o in zip(trees, offsets)]),
            np.concatenate([tree.right + o for tree, o in zip(trees, offsets)]),
            np.repeat(offsets[:, None], len(X), axis=1),
            max(tree.max_depth for tree in trees),
        )
        leaves = np.concatenate([tree.value for tree in trees])[node]
        # added in tree order, so the sum is the per-tree loop's bit for bit
        out = np.full(len(X), self.base_)
        for leaf in leaves:
            out += self.learning_rate * leaf
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
