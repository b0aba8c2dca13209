"""Multi-run statistics.

The paper reports "average prediction accuracy across 10 runs"; this module
drives repeated training with different run seeds and aggregates
mean/std per metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ReproError


@dataclass
class RunStatistics:
    """Mean/std/min/max per metric over repeated runs."""

    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    n_runs: int = 0

    def mean(self, metric: str) -> float:
        return self.metrics[metric]["mean"]

    def std(self, metric: str) -> float:
        return self.metrics[metric]["std"]

    def render(self) -> str:
        lines = [f"{self.n_runs} runs:"]
        for metric, stats in self.metrics.items():
            lines.append(
                f"  {metric}: {stats['mean']:.4g} +- {stats['std']:.4g} "
                f"[{stats['min']:.4g}, {stats['max']:.4g}]"
            )
        return "\n".join(lines)


def aggregate_runs(
    run_fn: Callable[[int], dict[str, float]],
    seeds: list[int],
) -> RunStatistics:
    """Run ``run_fn(seed)`` per seed and aggregate its metric dict.

    Raises
    ------
    ReproError
        If no seeds are given or runs return inconsistent metric keys.
    """
    if not seeds:
        raise ReproError("aggregate_runs needs at least one seed")
    results: list[dict[str, float]] = []
    for seed in seeds:
        outcome = run_fn(seed)
        if results and set(outcome) != set(results[0]):
            raise ReproError("runs returned inconsistent metric keys")
        results.append(outcome)
    stats = RunStatistics(n_runs=len(seeds))
    for metric in results[0]:
        # staticcheck: ignore[precision-policy] -- run statistics accumulate
        # in float64 whatever dtype the runs trained at
        values = np.array([r[metric] for r in results], dtype=np.float64)
        stats.metrics[metric] = {
            "mean": float(values.mean()),
            "std": float(values.std()),
            "min": float(values.min()),
            "max": float(values.max()),
        }
    return stats
