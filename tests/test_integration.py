"""End-to-end integration tests across subsystem boundaries.

These are the seams the unit suites cannot see: dataset -> training ->
prediction -> annotation -> simulation, and the ensemble -> Table V chain.
Scaled tiny; quality is the benchmarks' job.
"""

import numpy as np
import pytest

from repro.api import predict_one
from repro.circuits import devices as dev
from repro.circuits import read_spice, write_spice
from repro.circuits.generators.analog import ota_5t
from repro.circuits.netlist import Circuit
from repro.data.dataset import CircuitRecord
from repro.ensemble import train_capacitance_ensemble
from repro.graph import build_graph
from repro.layout import synthesize_layout
from repro.models import TargetPredictor, TrainConfig
from repro.sim import (
    Testbench,
    annotated_netlist,
    compute_metrics,
    predicted_annotations,
    reference_annotations,
    schematic_annotations,
)


@pytest.fixture(scope="module")
def cap_model(tiny_bundle):
    return TargetPredictor(
        "paragraph", "CAP",
        TrainConfig(epochs=25, embed_dim=16, num_layers=3, run_seed=0),
    ).fit(tiny_bundle)


def _ota_bench() -> Testbench:
    bench = Circuit("tb_ota")
    bench.embed(
        ota_5t(), "dut",
        {"inp": "in", "inn": "vss", "out": "out", "bias": "bias"},
    )
    bench.add_instance(
        "rload", dev.RESISTOR, {"p": "out", "n": "vss"}, {"L": 2e-6, "R": 50e3}
    )
    return Testbench(
        "tb_ota", bench, "in", "out", ("dc_gain", "bandwidth", "cap_total")
    )


class TestPredictAnnotateSimulate:
    def test_predicted_simulation_beats_bare(self, cap_model):
        """The paper's core claim, end to end on one unseen circuit."""
        bench = _ota_bench()
        layout = synthesize_layout(bench.circuit, seed=77)
        reference = compute_metrics(bench, reference_annotations(layout))
        bare = compute_metrics(bench, schematic_annotations(bench.circuit))
        predicted = compute_metrics(
            bench,
            predicted_annotations(
                predict_one(cap_model, bench.circuit).named("CAP"), circuit=bench.circuit
            ),
        )

        def err(values):
            return np.mean(
                [
                    abs(values[m] - reference[m]) / abs(reference[m])
                    for m in bench.metrics
                    if reference[m]
                ]
            )

        assert err(predicted) < err(bare)

    def test_annotated_netlist_simulates_close_to_direct_annotation(
        self, cap_model
    ):
        """Writing predictions as C elements == passing them as annotations."""
        bench = _ota_bench()
        caps = predict_one(cap_model, bench.circuit).named("CAP")
        annotated_circuit = annotated_netlist(bench.circuit, caps)
        bench_annotated = Testbench(
            "tb2", annotated_circuit, "in", "out", bench.metrics
        )
        via_netlist = compute_metrics(
            bench_annotated, schematic_annotations(bench.circuit)
        )
        via_annotations = compute_metrics(
            bench, predicted_annotations(caps, circuit=bench.circuit)
        )
        for metric in bench.metrics:
            assert via_netlist[metric] == pytest.approx(
                via_annotations[metric], rel=0.02
            )

    def test_spice_roundtrip_preserves_predictions(self, cap_model):
        """Predict -> write SPICE -> read -> predict again: same values."""
        circuit = ota_5t()
        first = predict_one(cap_model, circuit).named("CAP")
        reparsed = read_spice(write_spice(circuit), name="ota5t")
        second = predict_one(cap_model, reparsed).named("CAP")
        assert set(first) == set(second)
        for net in first:
            assert second[net] == pytest.approx(first[net], rel=1e-9)


class TestEnsembleIntegration:
    def test_ensemble_on_fresh_circuit(self, tiny_bundle):
        ensemble = train_capacitance_ensemble(
            tiny_bundle,
            max_vs=(1e-15, 10e-15),
            config=TrainConfig(epochs=10, embed_dim=8, num_layers=2),
        )
        circuit = ota_5t()
        record = CircuitRecord(
            name="ota",
            circuit=circuit,
            graph=build_graph(circuit),
            layout=synthesize_layout(circuit, seed=5),
        )
        named = predict_one(ensemble, record).named("CAP")
        assert set(named) == {n.name for n in circuit.signal_nets()}
        assert all(v >= 0 for v in named.values())
