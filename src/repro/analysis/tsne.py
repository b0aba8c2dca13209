"""Exact t-SNE (van der Maaten & Hinton 2008) in numpy.

Used to reproduce paper Figure 8: embedding net nodes of the capacitance
model and checking that nets with similar ground-truth capacitance cluster
together.  The implementation is the classic exact algorithm (O(n²)), fine
for the few hundred to few thousand net nodes per test circuit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def _pairwise_sq_dists(X: np.ndarray) -> np.ndarray:
    sums = (X**2).sum(axis=1)
    d2 = sums[:, None] + sums[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _binary_search_betas(
    d2: np.ndarray, perplexity: float, tol: float = 1e-5, max_iter: int = 50
) -> np.ndarray:
    """Per-point precision (beta) search matching the target perplexity."""
    n = d2.shape[0]
    target_entropy = np.log(perplexity)
    P = np.zeros((n, n))
    for i in range(n):
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        row = np.delete(d2[i], i)
        for _ in range(max_iter):
            p = np.exp(-row * beta)
            total = p.sum()
            if total <= 0:
                entropy, p = 0.0, np.zeros_like(p)
            else:
                p = p / total
                entropy = -(p * np.log(np.maximum(p, 1e-300))).sum()
            diff = entropy - target_entropy
            if abs(diff) < tol:
                break
            if diff > 0:  # entropy too high -> increase beta
                beta_min = beta
                beta = beta * 2 if beta_max == np.inf else (beta + beta_max) / 2
            else:
                beta_max = beta
                beta = beta / 2 if beta_min == -np.inf else (beta + beta_min) / 2
        P[i, np.arange(n) != i] = p
    return P


def tsne(
    X: np.ndarray,
    n_components: int = 2,
    perplexity: float = 30.0,
    n_iter: int = 300,
    learning_rate: float = 200.0,
    seed: int = 0,
    early_exaggeration: float = 12.0,
) -> np.ndarray:
    """Embed rows of X into ``n_components`` dimensions.

    Raises
    ------
    ReproError
        If there are fewer than ``3 * perplexity`` points (the conditional
        distributions would be degenerate).
    """
    # staticcheck: ignore[precision-policy] -- Fig. 8's t-SNE is analysis
    # output and optimises in float64, whatever dtype produced the rows
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if n < 4:
        raise ReproError("t-SNE needs at least 4 points")
    perplexity = min(perplexity, (n - 1) / 3.0)
    if perplexity < 1.0:
        raise ReproError(f"too few points ({n}) for any sensible perplexity")

    d2 = _pairwise_sq_dists(X)
    P = _binary_search_betas(d2, perplexity)
    P = (P + P.T) / (2.0 * n)
    P = np.maximum(P, 1e-12)

    rng = np.random.default_rng(seed)
    Y = rng.normal(0.0, 1e-4, size=(n, n_components))
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    exaggeration_end = min(100, n_iter // 4)

    for iteration in range(n_iter):
        p_eff = P * early_exaggeration if iteration < exaggeration_end else P
        dy2 = _pairwise_sq_dists(Y)
        q_num = 1.0 / (1.0 + dy2)
        np.fill_diagonal(q_num, 0.0)
        Q = np.maximum(q_num / q_num.sum(), 1e-12)
        pq = (p_eff - Q) * q_num
        grad = 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ Y)
        momentum = 0.5 if iteration < exaggeration_end else 0.8
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - learning_rate * gains * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    return Y


def neighborhood_label_agreement(
    embedding: np.ndarray, labels: np.ndarray, k: int = 10
) -> float:
    """How well an embedding separates a continuous label (Fig. 8 check).

    For each point, take its k nearest embedding neighbours and compute the
    mean |label difference|; compare with the same quantity for k random
    points.  Returns ``1 - knn_diff / random_diff``: 0 means no structure,
    values toward 1 mean neighbours share labels (well-separated colours).
    """
    # staticcheck: ignore[precision-policy] -- Fig. 8's separation score
    # is a float64 statistic
    embedding = np.asarray(embedding, dtype=np.float64)
    # staticcheck: ignore[precision-policy] -- as above
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n = len(embedding)
    if n != len(labels):
        raise ReproError("embedding/labels length mismatch")
    if n <= k + 1:
        raise ReproError("too few points for the neighbourhood statistic")
    d2 = _pairwise_sq_dists(embedding)
    np.fill_diagonal(d2, np.inf)
    knn = np.argsort(d2, axis=1)[:, :k]
    knn_diff = np.abs(labels[knn] - labels[:, None]).mean()
    rng = np.random.default_rng(0)
    rand = rng.integers(0, n, size=(n, k))
    rand_diff = np.abs(labels[rand] - labels[:, None]).mean()
    if rand_diff == 0:
        return 0.0
    return float(1.0 - knn_diff / rand_diff)
