#!/usr/bin/env python
"""Table V-style pre-layout simulation flow on a single circuit.

Annotates an LDO regulator netlist four ways — no parasitics, designer
estimates, XGBoost predictions, ParaGraph predictions — simulates each with
the MNA engine, and compares circuit metrics against the post-layout
reference.  This is the end-to-end payoff of the paper: accurate pre-layout
simulation without waiting for layout.

Run:  python examples/presim_flow.py
"""

from repro.analysis.tables import render_table
from repro.api import predict_one
from repro.circuits.generators.analog import ldo_regulator
from repro.data import build_bundle
from repro.data.dataset import CircuitRecord
from repro.graph import build_graph
from repro.layout import synthesize_layout
from repro.models import BaselinePredictor, TargetPredictor, TrainConfig
from repro.sim import (
    Testbench,
    compute_metrics,
    designer_annotations,
    predicted_annotations,
    reference_annotations,
    schematic_annotations,
)
from repro.circuits.netlist import Circuit
from repro.circuits import devices as dev


def build_ldo_bench() -> Testbench:
    bench_circuit = Circuit("tb_ldo")
    bench_circuit.embed(
        ldo_regulator(), "dut", {"vref": "in", "vreg": "out", "bias": "bias"}
    )
    bench_circuit.add_instance(
        "rload", dev.RESISTOR, {"p": "out", "n": "vss"}, {"L": 2e-6, "R": 50e3}
    )
    return Testbench(
        "ldo", bench_circuit, "in", "out",
        ("dc_gain", "bandwidth", "rise_time", "cap_total"),
    )


def main() -> None:
    bench = build_ldo_bench()
    layout = synthesize_layout(bench.circuit, seed=7)
    record = CircuitRecord(
        name=bench.name,
        circuit=bench.circuit,
        graph=build_graph(bench.circuit),
        layout=layout,
    )

    print("training CAP + SA + DA predictors (a few minutes)...")
    bundle = build_bundle(seed=0, scale=0.2)
    config = TrainConfig(epochs=60, run_seed=0)
    pg_cap = TargetPredictor("paragraph", "CAP", config).fit(bundle)
    pg_sa = TargetPredictor("paragraph", "SA", config).fit(bundle)
    pg_da = TargetPredictor("paragraph", "DA", config).fit(bundle)
    xgb_cap = BaselinePredictor("xgb", "CAP").fit(bundle)

    annotations = {
        "post-layout (ref)": reference_annotations(layout),
        "no parasitics": schematic_annotations(bench.circuit),
        "designer": designer_annotations(bench.circuit),
        "xgb": predicted_annotations(
            predict_one(xgb_cap, record).named("CAP"), circuit=bench.circuit
        ),
        "paragraph": predicted_annotations(
            predict_one(pg_cap, record).named("CAP"),
            predict_one(pg_sa, record).named("SA"),
            predict_one(pg_da, record).named("DA"),
        ),
    }

    reference = compute_metrics(bench, annotations["post-layout (ref)"])
    headers = ["mode", *bench.metrics, "mean |err|"]
    rows = []
    for mode, annotation in annotations.items():
        values = compute_metrics(bench, annotation)
        errors = [
            abs(values[m] - reference[m]) / abs(reference[m])
            for m in bench.metrics
            if reference[m]
        ]
        rows.append(
            [
                mode,
                *[f"{values[m]:.4g}" for m in bench.metrics],
                f"{100 * sum(errors) / len(errors):.1f}%",
            ]
        )
    print(render_table(headers, rows, title="LDO metrics under each annotation"))


if __name__ == "__main__":
    main()
