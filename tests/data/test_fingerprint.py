"""Content fingerprints: stability, sensitivity and pinned digests.

The golden digests pin the hashed encoding itself: the graph cache, the
text index and the training inputs cache all key on these strings, so a
change to how a circuit is hashed must show up here, not pass silently.
"""

import pytest

from repro.circuits import devices as dev
from repro.circuits.generators import primitives
from repro.circuits.generators.chip import TEST_RECIPES, compose_chip
from repro.circuits.netlist import Circuit
from repro.circuits.spice import read_spice, write_spice
from repro.data.fingerprint import circuit_fingerprint, scaler_fingerprint


@pytest.fixture
def circuits(tiny_bundle):
    return [record.circuit for record in tiny_bundle.records("test")]


class TestFingerprints:
    def test_stable_across_reparse(self, circuits):
        # the same netlist text parsed twice is the same content
        text = write_spice(circuits[0])
        first = read_spice(text, name="same")
        second = read_spice(text, name="same")
        assert circuit_fingerprint(first) == circuit_fingerprint(second)

    def test_differs_between_circuits(self, circuits):
        prints = {circuit_fingerprint(c) for c in circuits}
        assert len(prints) == len(circuits)

    def test_parameter_change_changes_fingerprint(self, circuits):
        circuit = circuits[0]
        before = circuit_fingerprint(circuit)
        instance = next(iter(circuit.instances()))
        original = dict(instance.params)
        try:
            for key, value in list(instance.params.items()):
                if isinstance(value, (int, float)):
                    instance.params[key] = value + 3.0
                    break
            assert circuit_fingerprint(circuit) != before
        finally:
            instance.params.clear()
            instance.params.update(original)

    def test_scaler_fingerprint_memoised(self, tiny_bundle):
        scaler = tiny_bundle.scaler
        first = scaler_fingerprint(scaler)
        assert scaler_fingerprint(scaler) == first
        assert getattr(scaler, "_content_fingerprint") == first


def _mixed_numbers() -> Circuit:
    """In-memory parameters as generators write them: ints beside floats,
    0.0 beside -0.0, and terminals given out of order."""
    c = Circuit("ints", ports=["in", "out"])
    c.add_instance(
        "m0", dev.TRANSISTOR,
        {"drain": "out", "gate": "in", "source": "vss", "bulk": "vss"},
        {"TYPE": 1, "NFIN": 4, "NF": 2, "L": 16e-9, "MULTI": 1},
    )
    c.add_instance(
        "m1", dev.TRANSISTOR,
        {"gate": "in", "drain": "out", "source": "vdd", "bulk": "vdd"},
        {"TYPE": -1.0, "NFIN": 4.0, "NF": 2, "L": 1.6e-08, "MULTI": 1.0},
    )
    c.add_instance("r0", dev.RESISTOR, {"p": "out", "n": "mid"}, {"R": 1000, "L": 0.0})
    c.add_instance("r1", dev.RESISTOR, {"n": "mid", "p": "in"}, {"R": 1000.0, "L": -0.0})
    return c


class TestGoldenDigests:
    def test_inverter(self):
        circuit = primitives.inverter(nfin_n=2, nfin_p=4)
        assert circuit_fingerprint(circuit) == (
            "0e14e5a1e6922a244cc005ed04e5eb6cbca8a7a14e5ecdb3d3312c227deed126"
        )

    def test_parsed_chip(self):
        chip = compose_chip(TEST_RECIPES[1], seed=5, scale=0.5).circuit
        parsed = read_spice(write_spice(chip), name="e2-cold")
        assert (parsed.num_instances, parsed.num_nets) == (35, 22)
        assert circuit_fingerprint(parsed) == (
            "3708ff7943d8b459fb73bf03f61d9ab3646380b77f232f3a2d689b8715d91972"
        )

    def test_in_memory_ints_and_signed_zeros(self):
        assert circuit_fingerprint(_mixed_numbers()) == (
            "d286aff3b1edcf29213a996efb4ed37f781c6ae2327a62e45d656f740e707c13"
        )

    @pytest.mark.parametrize("instance, key, value", [
        ("m0", "NFIN", 4.0),   # 4 -> 4.0
        ("m1", "MULTI", 1),    # 1.0 -> 1
        ("m1", "MULTI", True),  # 1.0 -> True
        ("r0", "L", -0.0),     # 0.0 -> -0.0
        ("r1", "L", 0.0),      # -0.0 -> 0.0
    ])
    def test_equal_values_of_another_spelling_differ(self, instance, key, value):
        """The digest hashes each value's repr, so values that compare
        equal but print differently are different content."""
        circuit = _mixed_numbers()
        before = circuit_fingerprint(circuit)
        circuit.instance(instance).params[key] = value
        assert circuit_fingerprint(circuit) != before
