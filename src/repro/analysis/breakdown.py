"""Error breakdown: where does a predictor do well or badly?

Buckets per-net prediction errors by fanout and by ground-truth magnitude —
the two axes the paper discusses (§V: "prediction errors are generally
worse for those larger parasitics").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tables import format_percent, render_table
from repro.errors import ReproError

#: Fanout buckets for the breakdown.
FANOUT_BUCKETS = ((1, 2), (3, 4), (5, 8), (9, 10**9))
FANOUT_LABELS = ("1-2", "3-4", "5-8", ">8")


@dataclass
class ErrorBreakdown:
    """Bucketed relative-error statistics."""

    by_fanout: dict[str, dict[str, float]] = field(default_factory=dict)
    by_magnitude: dict[str, dict[str, float]] = field(default_factory=dict)

    def render(self) -> str:
        sections = []
        for title, table in (
            ("by fanout", self.by_fanout),
            ("by ground-truth magnitude", self.by_magnitude),
        ):
            rows = [
                [label, stats["n"], format_percent(stats["mape"]),
                 format_percent(stats["median"])]
                for label, stats in table.items()
                if stats["n"]
            ]
            sections.append(
                render_table(
                    ["bucket", "n", "MAPE", "median |err|"], rows,
                    title=f"Error breakdown {title}",
                )
            )
        return "\n\n".join(sections)


def _bucket_stats(errors: np.ndarray) -> dict[str, float]:
    if errors.size == 0:
        return {"n": 0, "mape": float("nan"), "median": float("nan")}
    return {
        "n": int(errors.size),
        "mape": float(errors.mean()),
        "median": float(np.median(errors)),
    }


def error_breakdown(
    truth: np.ndarray,
    prediction: np.ndarray,
    fanout: np.ndarray,
    magnitude_edges: tuple[float, ...] = (1e-15, 1e-14, 1e-13),
) -> ErrorBreakdown:
    """Bucket |relative error| by fanout and by ground-truth magnitude.

    Raises
    ------
    ReproError
        On length mismatches or non-positive ground truth.
    """
    truth = np.asarray(truth, dtype=np.float64).ravel()  # staticcheck: ignore[precision-policy] -- metrics accumulate in float64 for stable statistics regardless of model dtype
    prediction = np.asarray(prediction, dtype=np.float64).ravel()  # staticcheck: ignore[precision-policy] -- metrics accumulate in float64 for stable statistics regardless of model dtype
    fanout = np.asarray(fanout, dtype=np.int64).ravel()
    if not (len(truth) == len(prediction) == len(fanout)):
        raise ReproError("truth/prediction/fanout length mismatch")
    if (truth <= 0).any():
        raise ReproError("error breakdown needs positive ground truth")
    errors = np.abs(prediction - truth) / truth

    breakdown = ErrorBreakdown()
    for (lo, hi), label in zip(FANOUT_BUCKETS, FANOUT_LABELS):
        mask = (fanout >= lo) & (fanout <= hi)
        breakdown.by_fanout[label] = _bucket_stats(errors[mask])

    edges = (0.0, *magnitude_edges, float("inf"))
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        label = f"[{lo:g}, {hi:g})"
        mask = (truth >= lo) & (truth < hi)
        breakdown.by_magnitude[label] = _bucket_stats(errors[mask])
    return breakdown


def breakdown_for_predictor(predictor, records) -> ErrorBreakdown:
    """Convenience: breakdown of a one-target net predictor over records
    (any model family :func:`repro.api.collect` serves)."""
    from repro.api import collect, make_adapter
    from repro.data.targets import target_by_name

    truth, prediction = collect(predictor, records)
    (target,) = make_adapter(predictor).targets
    spec = target_by_name(target)
    fanouts = [
        record.circuit.fanout(record.graph.node_name_of[node_id])
        for record in records
        for node_id in spec.node_ids(record.graph)
    ]
    return error_breakdown(truth, prediction, np.asarray(fanouts))
