#!/usr/bin/env python
"""Ensemble modeling over a wide capacitance range (paper SIV, Fig. 5).

Trains range-clamped CAP models (max_v = 1 fF / 10 fF / 100 fF plus the
full-range model), shows how each one behaves across ground-truth decades,
and combines them with Algorithm 2.

Run:  python examples/ensemble_capacitance.py
"""

import numpy as np

from repro.analysis.metrics import mape
from repro.api import collect
from repro.data import build_bundle
from repro.data.targets import CAP_TARGET
from repro.ensemble import DEFAULT_MAX_V, train_capacitance_ensemble
from repro.models import TrainConfig
from repro.units import to_femto

DECADES = ((0.0, 1e-15), (1e-15, 1e-14), (1e-14, 1e-13), (1e-13, float("inf")))
LABELS = ("<1fF", "1-10fF", "10-100fF", ">100fF")


def decade_report(name: str, truth: np.ndarray, pred: np.ndarray) -> None:
    print(f"  {name:14s}", end="")
    for (lo, hi), label in zip(DECADES, LABELS):
        mask = (truth >= lo) & (truth < hi)
        if mask.sum() == 0:
            print(f" {label}: {'-':>8s}", end="")
        else:
            print(f" {label}: {100 * mape(truth[mask], pred[mask]):7.1f}%", end="")
    print(f"   overall MAE {to_femto(np.abs(truth - pred).mean()):.3f} fF")


def main() -> None:
    print("building dataset and training the ensemble (a few minutes)...")
    bundle = build_bundle(seed=0, scale=0.2)
    ensemble = train_capacitance_ensemble(
        bundle,
        max_vs=DEFAULT_MAX_V,
        config=TrainConfig(epochs=60, run_seed=0),
    )

    records = bundle.records("test")
    truths = np.concatenate(
        [record.target_arrays(CAP_TARGET)[1] for record in records]
    )
    print(
        f"test set: {len(truths)} nets spanning "
        f"{to_femto(truths.min()):.3f} fF .. {to_femto(truths.max()):.1f} fF"
    )

    print("\nper-decade MAPE of each range model (paper Fig. 5):")
    for member in ensemble.models:
        label = (
            "full-range"
            if member.max_v == float("inf")
            else f"max_v={to_femto(member.max_v):g}fF"
        )
        truth, pred = collect(member.predictor, records)
        decade_report(label, truth, pred)

    print("\nAlgorithm 2 ensemble:")
    truth, pred = collect(ensemble, records)
    decade_report("ensemble", truth, pred)
    print(
        f"\nensemble MAE {to_femto(np.abs(truth - pred).mean()):.3f} fF, "
        f"MAPE {100 * mape(truth, pred):.1f}% "
        "(paper: 0.852 fF / 15.0% on its industrial dataset)"
    )


if __name__ == "__main__":
    main()
