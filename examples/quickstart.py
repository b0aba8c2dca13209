#!/usr/bin/env python
"""Quickstart: schematic -> graph -> trained model -> parasitic prediction.

Builds the dataset (small scale), trains a ParaGraph capacitance model for a
few epochs, and predicts the net parasitics of an op-amp the model has never
seen — the paper's core pre-layout workflow.

Run:  python examples/quickstart.py
"""

from repro.api import evaluate, predict_one
from repro.circuits.generators.analog import two_stage_opamp
from repro.data import build_bundle
from repro.data.dataset import CircuitRecord
from repro.graph import build_graph
from repro.layout import synthesize_layout
from repro.models import TargetPredictor, TrainConfig
from repro.units import format_eng


def main() -> None:
    print("1. building the training dataset (schematics + synthesized layouts)...")
    bundle = build_bundle(seed=0, scale=0.15)
    n_devices = sum(r.circuit.num_instances for r in bundle.records("train"))
    print(f"   {len(bundle.train)} training circuits, {n_devices} devices total")

    print("2. training a ParaGraph net-capacitance model (60 epochs)...")
    predictor = TargetPredictor(
        conv="paragraph",
        targets="CAP",
        config=TrainConfig(epochs=60, run_seed=0),
    )
    predictor.fit(bundle)
    print(f"   final training loss: {predictor.history.final_loss:.5f}")

    metrics = evaluate(predictor, bundle.records("test"))
    print(
        f"   held-out circuits: R2={metrics['r2']:.3f}, "
        f"MAPE={100 * metrics['mape']:.1f}%"
    )

    print("3. predicting parasitics for an unseen op-amp schematic...")
    opamp = two_stage_opamp()
    record = CircuitRecord(
        name="opamp",
        circuit=opamp,
        graph=build_graph(opamp),
        layout=synthesize_layout(opamp, seed=99),  # ground truth for comparison
    )
    predictions = predict_one(predictor, record).named("CAP")
    print(f"   {'net':12s} {'predicted':>12s} {'post-layout':>12s}")
    for net, predicted in sorted(predictions.items()):
        truth = record.layout.cap_of(net)
        print(
            f"   {net:12s} {format_eng(predicted, 'F'):>12s} "
            f"{format_eng(truth, 'F'):>12s}"
        )


if __name__ == "__main__":
    main()
