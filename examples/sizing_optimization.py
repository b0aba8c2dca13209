#!/usr/bin/env python
"""Parasitic-aware device sizing (the paper's §I optimization motivation).

Sweeps the stage ratio of a 3-stage tapered buffer and picks the fastest
sizing under three evaluation regimes:

* **no parasitics** — the classic pre-layout trap: bigger is always better,
* **ParaGraph-predicted parasitics** — the paper's proposal,
* **post-layout** — the ground truth an optimizer actually wants.

The predicted-parasitics optimum should match (or land next to) the
post-layout optimum, while the no-parasitics regime picks an oversized
design.

Run:  python examples/sizing_optimization.py
"""

from repro.api import predict_one
from repro.circuits import devices as dev
from repro.circuits.generators.primitives import buffer
from repro.circuits.netlist import Circuit
from repro.data import build_bundle
from repro.layout import synthesize_layout
from repro.models import TargetPredictor, TrainConfig
from repro.sim import (
    Annotations,
    Testbench,
    compute_metrics,
    reference_annotations,
    schematic_annotations,
)

STAGE_RATIOS = (2.0, 3.0, 4.5, 6.0, 9.0, 13.0)
LOAD_CAP = 30e-15


def make_bench(stage_ratio: float) -> Testbench:
    cell = buffer(nfin_first=2, stage_ratio=stage_ratio, stages=3)
    bench = Circuit(f"tb_buf_{stage_ratio}")
    bench.embed(cell, "dut", {"a": "in", "y": "out"})
    bench.add_instance(
        "cload", dev.CAPACITOR, {"p": "out", "n": "vss"},
        {"C": LOAD_CAP, "MULTI": 1},
    )
    return Testbench(bench.name, bench, "in", "out", ("delay",))


def main() -> None:
    print("training a ParaGraph CAP model...")
    bundle = build_bundle(seed=0, scale=0.15)
    predictor = TargetPredictor(
        "paragraph", "CAP", TrainConfig(epochs=60, run_seed=0)
    ).fit(bundle)

    print(f"\n{'ratio':>6s} {'no-parasitics':>15s} {'predicted':>12s} {'post-layout':>12s}")
    delays: dict[str, dict[float, float]] = {
        "bare": {}, "predicted": {}, "layout": {}
    }
    for ratio in STAGE_RATIOS:
        bench = make_bench(ratio)
        layout = synthesize_layout(bench.circuit, seed=21)

        bare = compute_metrics(bench, schematic_annotations(bench.circuit))
        predicted_caps = predict_one(predictor, bench.circuit).named("CAP")
        predicted = compute_metrics(
            bench,
            Annotations(
                net_caps=predicted_caps,
                device_areas=schematic_annotations(bench.circuit).device_areas,
            ),
        )
        reference = compute_metrics(bench, reference_annotations(layout))

        delays["bare"][ratio] = bare["delay"]
        delays["predicted"][ratio] = predicted["delay"]
        delays["layout"][ratio] = reference["delay"]
        print(
            f"{ratio:6.1f} {bare['delay'] * 1e12:13.1f}ps "
            f"{predicted['delay'] * 1e12:10.1f}ps "
            f"{reference['delay'] * 1e12:10.1f}ps"
        )

    def best(kind: str) -> float:
        table = delays[kind]
        return min(table, key=table.get)

    print("\noptimal stage ratio by regime:")
    print(f"  no parasitics : {best('bare')}")
    print(f"  ParaGraph     : {best('predicted')}")
    print(f"  post-layout   : {best('layout')}")
    if best("predicted") == best("layout"):
        print("predicted parasitics found the true post-layout optimum.")


if __name__ == "__main__":
    main()
