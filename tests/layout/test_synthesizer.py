"""Tests for placement, routing, parasitics and the synthesis driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import devices as dev
from repro.circuits.generators import analog, digital, primitives
from repro.circuits.generators.chip import TRAIN_RECIPES, compose_chip
from repro.circuits.netlist import Circuit
from repro.errors import LayoutError
from repro.layout import (
    DEFAULT_TECH,
    DEVICE_TARGET_NAMES,
    designer_estimate,
    detour_factor,
    find_diffusion_chains,
    net_length,
    pin_capacitance,
    place_circuit,
    synthesize_layout,
    transistor_names,
)
from repro.layout.routing import all_net_lengths


class TestPlacement:
    def _place(self, circuit, seed=0):
        chains = find_diffusion_chains(circuit)
        rng = np.random.default_rng(seed)
        return place_circuit(circuit, chains, DEFAULT_TECH, rng)

    def test_all_devices_placed(self):
        c = analog.two_stage_opamp()
        placement = self._place(c)
        assert set(placement.devices) == {inst.name for inst in c.instances()}

    def test_rows_wrap(self):
        c = digital.inverter_chain(stages=200)
        placement = self._place(c)
        assert placement.num_rows > 1
        for placed in placement.devices.values():
            assert placed.x <= DEFAULT_TECH.row_width

    def test_die_dimensions_positive(self):
        placement = self._place(primitives.inverter())
        assert placement.die_width > 0 and placement.die_height > 0

    def test_chain_devices_contiguous(self):
        """Devices of one chain land adjacently (same row, increasing x)."""
        c = primitives.nand2()
        chains = find_diffusion_chains(c)
        placement = self._place(c)
        for chain in chains:
            rows = {placement.devices[l.inst.name].row for l in chain.links}
            if len(chain.links) <= 3:
                assert len(rows) == 1


class TestRouting:
    def test_detour_factor_monotone(self):
        values = [detour_factor(f) for f in (2, 3, 5, 10, 50)]
        assert values == sorted(values)
        assert values[0] == 1.0

    def test_net_length_positive_for_connected(self):
        c = primitives.inverter()
        placement_rng = np.random.default_rng(0)
        placement = place_circuit(c, find_diffusion_chains(c), DEFAULT_TECH, placement_rng)
        lengths = all_net_lengths(c, placement)
        assert all(length > 0 for length in lengths.values())
        assert set(lengths) == {"a", "y"}

    def test_far_apart_pins_longer_net(self):
        c = digital.inverter_chain(stages=100)
        placement = place_circuit(
            c, find_diffusion_chains(c), DEFAULT_TECH, np.random.default_rng(0)
        )
        lengths = all_net_lengths(c, placement)
        assert max(lengths.values()) > 5 * min(lengths.values())


class TestPinCapacitance:
    def _inst(self, device_type, params, conns=None):
        c = Circuit("x")
        default_conns = {
            dev.TRANSISTOR: {"drain": "d", "gate": "g", "source": "s", "bulk": "vss"},
            dev.TRANSISTOR_THICKGATE: {"drain": "d", "gate": "g", "source": "s", "bulk": "vss"},
            dev.RESISTOR: {"p": "a", "n": "b"},
            dev.CAPACITOR: {"p": "a", "n": "b"},
            dev.DIODE: {"p": "a", "n": "b"},
            dev.BJT: {"c": "a", "b": "b", "e": "e"},
        }[device_type]
        return c.add_instance("x1", device_type, conns or default_conns, params)

    def test_gate_cap_scales_with_fins_and_fingers(self):
        small = self._inst(dev.TRANSISTOR, {"TYPE": 1.0, "NFIN": 2, "NF": 1})
        big = self._inst(dev.TRANSISTOR, {"TYPE": 1.0, "NFIN": 4, "NF": 2})
        assert pin_capacitance(big, "gate", DEFAULT_TECH) == pytest.approx(
            4 * pin_capacitance(small, "gate", DEFAULT_TECH)
        )

    def test_thickgate_scaling(self):
        thin = self._inst(dev.TRANSISTOR, {"TYPE": 1.0, "NFIN": 2, "NF": 1})
        thick = self._inst(dev.TRANSISTOR_THICKGATE, {"TYPE": 1.0, "NFIN": 2, "NF": 1})
        ratio = pin_capacitance(thick, "gate", DEFAULT_TECH) / pin_capacitance(
            thin, "gate", DEFAULT_TECH
        )
        assert ratio == pytest.approx(DEFAULT_TECH.thick_cap_scale)

    def test_bulk_pin_free(self):
        inst = self._inst(dev.TRANSISTOR, {"TYPE": 1.0})
        assert pin_capacitance(inst, "bulk", DEFAULT_TECH) == 0.0

    def test_capacitor_value_fraction(self):
        inst = self._inst(dev.CAPACITOR, {"MULTI": 1, "C": 100e-15})
        cap = pin_capacitance(inst, "p", DEFAULT_TECH)
        assert cap >= DEFAULT_TECH.cap_value_fraction * 100e-15


class TestSynthesizer:
    def test_result_covers_all_targets(self):
        c = analog.two_stage_opamp()
        result = synthesize_layout(c, seed=3)
        assert set(result.net_caps) == {n.name for n in c.signal_nets()}
        assert set(result.device_params) == set(transistor_names(c))
        one = next(iter(result.device_params.values()))
        assert set(one.as_dict()) == set(DEVICE_TARGET_NAMES)

    def test_all_targets_positive(self):
        result = synthesize_layout(analog.ldo_regulator(), seed=1)
        assert all(v > 0 for v in result.net_caps.values())
        for targets in result.device_params.values():
            assert all(v > 0 for v in targets.as_dict().values())

    def test_deterministic_given_seed(self):
        c = compose_chip(TRAIN_RECIPES[2], seed=4, scale=0.3).circuit
        a = synthesize_layout(c, seed=9)
        b = synthesize_layout(c, seed=9)
        assert a.net_caps == b.net_caps
        for name in a.device_params:
            assert a.device_params[name].as_dict() == b.device_params[name].as_dict()

    def test_seed_changes_noise(self):
        c = analog.two_stage_opamp()
        a = synthesize_layout(c, seed=1)
        b = synthesize_layout(c, seed=2)
        diffs = [
            abs(a.net_caps[n] - b.net_caps[n]) / a.net_caps[n] for n in a.net_caps
        ]
        assert max(diffs) > 0.01

    def test_no_signal_nets_raises(self):
        c = Circuit("rails")
        c.add_instance("r1", dev.RESISTOR, {"p": "vdd", "n": "vss"})
        with pytest.raises(LayoutError):
            synthesize_layout(c)

    def test_cap_of_unknown_net_raises(self):
        result = synthesize_layout(primitives.inverter(), seed=0)
        with pytest.raises(LayoutError):
            result.cap_of("ghost")

    def test_unknown_device_target_raises(self):
        result = synthesize_layout(primitives.inverter(), seed=0)
        targets = next(iter(result.device_params.values()))
        with pytest.raises(LayoutError):
            targets.value("LDE99")

    @pytest.mark.parametrize(
        "name", ["LDE0", "LDE01", "LDE", "lde1", "LDE+1", "LDE\uff11", "CAP", "", "sa"]
    )
    def test_value_refuses_names_outside_as_dict(self, name):
        targets = next(iter(synthesize_layout(primitives.inverter()).device_params.values()))
        assert name not in targets.as_dict()
        with pytest.raises(LayoutError, match="unknown device target"):
            targets.value(name)

    def test_value_reads_what_as_dict_holds(self):
        result = synthesize_layout(primitives.inverter(), seed=0)
        for targets in result.device_params.values():
            for name, expected in targets.as_dict().items():
                assert targets.value(name) == expected

    def test_sram_bitline_cap_scales_with_rows(self):
        """Structure->target correlation the CAP model must learn."""
        small = digital.sram_array(rows=2, cols=1, name="s")
        large = digital.sram_array(rows=8, cols=1, name="l")
        cap_small = synthesize_layout(small, seed=5).cap_of("bl0")
        cap_large = synthesize_layout(large, seed=5).cap_of("bl0")
        assert cap_large > 2 * cap_small

    def test_shared_vs_unshared_sa(self):
        """A series stack's inner devices have smaller diffusion than isolated ones."""
        stack = Circuit("stack")
        for i in range(3):
            top = "out" if i == 0 else f"m{i}"
            bottom = "vss" if i == 2 else f"m{i + 1}"
            stack.add_instance(
                f"mn{i}", dev.TRANSISTOR,
                {"drain": top, "gate": f"g{i}", "source": bottom, "bulk": "vss"},
                {"TYPE": dev.NMOS, "NFIN": 4, "NF": 1, "L": 16e-9, "MULTI": 1},
            )
        lone = Circuit("lone")
        lone.add_instance(
            "m0", dev.TRANSISTOR,
            {"drain": "out", "gate": "g", "source": "x", "bulk": "vss"},
            {"TYPE": dev.NMOS, "NFIN": 4, "NF": 1, "L": 16e-9, "MULTI": 1},
        )
        stack_res = synthesize_layout(stack, seed=0)
        lone_res = synthesize_layout(lone, seed=0)
        inner = stack_res.device_params["mn1"]  # both sides shared
        isolated = lone_res.device_params["m0"]
        assert inner.sa < isolated.sa
        assert inner.da < isolated.da


class TestDesignerEstimate:
    def test_covers_signal_nets(self):
        c = analog.two_stage_opamp()
        est = designer_estimate(c)
        assert set(est) == {n.name for n in c.signal_nets()}
        assert all(v > 0 for v in est.values())

    def test_ignores_wire_length(self):
        """Same local structure, very different length -> same estimate."""
        short = digital.inverter_chain(stages=2, name="a")
        est = designer_estimate(short)
        # internal net between two identical inverters
        assert est["i0/y" if "i0/y" in est else "n0"] > 0

    def test_worse_on_long_nets(self):
        c = digital.sram_array(rows=8, cols=1)
        truth = synthesize_layout(c, seed=3)
        est = designer_estimate(c)
        bitline_error = abs(est["bl0"] - truth.cap_of("bl0")) / truth.cap_of("bl0")
        assert bitline_error > 0.3  # heuristic misses the long bitline badly


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 300))
def test_property_synthesis_complete_and_positive(seed):
    """Synthesis of any composed chip covers every net/transistor, positively."""
    circuit = compose_chip(TRAIN_RECIPES[7], seed=seed, scale=0.5).circuit
    result = synthesize_layout(circuit, seed=seed)
    assert set(result.net_caps) == {n.name for n in circuit.signal_nets()}
    assert all(np.isfinite(v) and v > 0 for v in result.net_caps.values())
