"""Ridge linear regression (the paper's Linear Regression baseline)."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class RidgeRegression:
    """Closed-form ridge regression with an intercept.

    Parameters
    ----------
    alpha:
        L2 penalty on the weights (the intercept is unpenalised).
    """

    def __init__(self, alpha: float = 1e-6):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        # staticcheck: ignore[precision-policy] -- the ridge baseline (Fig. 6)
        # solves its normal equations in float64
        X = np.asarray(X, dtype=np.float64)
        # staticcheck: ignore[precision-policy] -- as X
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or len(X) != len(y):
            raise ModelError(f"bad ridge inputs: X{X.shape}, y{y.shape}")
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        xc = X - x_mean
        yc = y - y_mean
        gram = xc.T @ xc + self.alpha * np.eye(X.shape[1])
        self.coef_ = np.linalg.solve(gram, xc.T @ yc)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise ModelError("RidgeRegression is not fitted")
        # staticcheck: ignore[precision-policy] -- predicts at the fit's float64
        return np.asarray(X, dtype=np.float64) @ self.coef_ + self.intercept_
