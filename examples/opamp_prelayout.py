#!/usr/bin/env python
"""Pre-layout estimation shoot-out on an op-amp (paper Figure 1 scenario).

Compares three ways of estimating an op-amp's net parasitics before layout:

* the designer rule-of-thumb heuristic,
* an XGBoost-style model on node features alone,
* ParaGraph,

against the post-layout ground truth from the layout synthesizer, and shows
the per-net relative errors plus the diffusion-sharing (MTS) structure the
graph model exploits.

Run:  python examples/opamp_prelayout.py
"""

import numpy as np

from repro.api import predict_one
from repro.circuits.generators.analog import two_stage_opamp
from repro.data import build_bundle
from repro.data.dataset import CircuitRecord
from repro.graph import build_graph
from repro.layout import (
    designer_estimate,
    find_diffusion_chains,
    sharing_summary,
    synthesize_layout,
)
from repro.models import BaselinePredictor, TargetPredictor, TrainConfig
from repro.units import to_femto


def main() -> None:
    opamp = two_stage_opamp()
    chains = find_diffusion_chains(opamp)
    print("op-amp diffusion sharing:", sharing_summary(chains))

    record = CircuitRecord(
        name="opamp",
        circuit=opamp,
        graph=build_graph(opamp),
        layout=synthesize_layout(opamp, seed=42),
    )

    print("training models (this takes a minute)...")
    bundle = build_bundle(seed=0, scale=0.15)
    paragraph = TargetPredictor(
        "paragraph", "CAP", TrainConfig(epochs=60, run_seed=0)
    ).fit(bundle)
    xgb = BaselinePredictor("xgb", "CAP").fit(bundle)

    estimates = {
        "designer": designer_estimate(opamp),
        "xgb": predict_one(xgb, record).named("CAP"),
        "paragraph": predict_one(paragraph, record).named("CAP"),
    }

    print(f"\n{'net':10s} {'truth(fF)':>10s}", end="")
    for name in estimates:
        print(f" {name + ' err':>14s}", end="")
    print()
    all_errors = {name: [] for name in estimates}
    for net in sorted(record.layout.net_caps):
        truth = record.layout.cap_of(net)
        print(f"{net:10s} {to_femto(truth):10.3f}", end="")
        for name, values in estimates.items():
            err = abs(values[net] - truth) / truth
            all_errors[name].append(err)
            print(f" {100 * err:13.1f}%", end="")
        print()

    print("\nmean relative error per estimator:")
    for name, errors in all_errors.items():
        print(f"  {name:10s} {100 * np.mean(errors):6.1f}%")


if __name__ == "__main__":
    main()
