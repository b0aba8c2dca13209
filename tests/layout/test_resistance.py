"""Tests for net-resistance extraction (paper §VI future-work extension)."""

import numpy as np
import pytest

from repro.circuits.generators import analog, digital
from repro.data import RES_TARGET, target_by_name
from repro.layout import synthesize_layout
from repro.layout.parasitics import net_resistance
from repro.layout.tech import DEFAULT_TECH


class TestResistanceExtraction:
    def test_all_signal_nets_covered(self):
        circuit = analog.two_stage_opamp()
        result = synthesize_layout(circuit, seed=3)
        assert set(result.net_res) == {n.name for n in circuit.signal_nets()}
        assert all(v > 0 for v in result.net_res.values())

    def test_res_of_unknown_raises(self):
        from repro.errors import LayoutError

        result = synthesize_layout(analog.ota_5t(), seed=3)
        with pytest.raises(LayoutError):
            result.res_of("ghost")

    def test_longer_nets_more_resistive(self):
        circuit = digital.inverter_chain(stages=60)
        rng = np.random.default_rng(0)
        short = net_resistance(circuit, "n0", 0.5e-6, DEFAULT_TECH, rng)
        long = net_resistance(circuit, "n0", 50e-6, DEFAULT_TECH, rng)
        assert long > 10 * short

    def test_via_floor(self):
        """Zero-length nets still carry the via resistance of their pins."""
        circuit = digital.inverter_chain(stages=2)
        rng = np.random.default_rng(0)
        value = net_resistance(circuit, "n0", 0.0, DEFAULT_TECH, rng)
        assert value == pytest.approx(
            DEFAULT_TECH.via_resistance * circuit.fanout("n0")
        )

    def test_high_fanout_spreads_current(self):
        """A high-fanout net of the same length has lower trace resistance."""
        low_fo = digital.inverter_chain(stages=2)
        high_fo = digital.sram_array(rows=8, cols=1)
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        length = 10e-6
        r_low = net_resistance(low_fo, "n0", length, DEFAULT_TECH, rng1)
        r_high = net_resistance(high_fo, "bl0", length, DEFAULT_TECH, rng2)
        # bl0 has many more pins, so trace resistance is parallelised
        # (via term grows, but the trace term dominates at 10 um)
        assert r_high < r_low

    def test_deterministic(self):
        circuit = analog.ota_5t()
        a = synthesize_layout(circuit, seed=5).net_res
        b = synthesize_layout(circuit, seed=5).net_res
        assert a == b


class TestResTarget:
    def test_target_registered(self):
        assert target_by_name("RES") is RES_TARGET
        assert RES_TARGET.kind == "net"

    def test_values_align_with_layout(self, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        ids, values = record.target_arrays(RES_TARGET)
        for node_id, value in zip(ids[:5], values[:5]):
            net = record.graph.node_name_of[node_id]
            assert value == record.layout.res_of(net)

    def test_res_not_in_paper_target_list(self):
        from repro.data import ALL_TARGETS

        assert all(spec.name != "RES" for spec in ALL_TARGETS)

    def test_res_model_trains(self, tiny_bundle):
        from repro.api import evaluate
        from repro.models import TargetPredictor, TrainConfig

        predictor = TargetPredictor(
            "paragraph", "RES",
            TrainConfig(epochs=6, embed_dim=8, num_layers=2),
        ).fit(tiny_bundle)
        metrics = evaluate(predictor, tiny_bundle.records("test"))
        assert np.isfinite(metrics["r2"])
