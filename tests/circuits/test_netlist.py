"""Tests for the Circuit/Instance/Net data model and hierarchy flattening."""

import pytest

from repro.circuits import devices as dev
from repro.circuits.netlist import Circuit, is_supply_name
from repro.errors import NetlistError


def _simple_inverter() -> Circuit:
    c = Circuit("inv", ports=["a", "y"])
    c.add_instance(
        "mp", dev.TRANSISTOR,
        {"drain": "y", "gate": "a", "source": "vdd", "bulk": "vdd"},
        {"TYPE": dev.PMOS, "NFIN": 4},
    )
    c.add_instance(
        "mn", dev.TRANSISTOR,
        {"drain": "y", "gate": "a", "source": "vss", "bulk": "vss"},
        {"TYPE": dev.NMOS, "NFIN": 2},
    )
    return c


class TestSupplyDetection:
    @pytest.mark.parametrize(
        "name", ["vdd", "VSS", "gnd", "vddio", "avdd_core", "0", "vcc1", "dvss"]
    )
    def test_supply_names(self, name):
        assert is_supply_name(name)

    @pytest.mark.parametrize("name", ["out", "bias", "clk", "net42", "vin", "vref"])
    def test_signal_names(self, name):
        assert not is_supply_name(name)

    def test_hierarchical_suffix(self):
        assert is_supply_name("blk1/vdd")
        assert not is_supply_name("blk1/out")


class TestConstruction:
    def test_ports_become_nets(self):
        c = Circuit("x", ports=["a", "b"])
        assert c.has_net("a") and c.has_net("b")

    def test_add_instance_creates_nets(self):
        c = _simple_inverter()
        assert c.has_net("vdd") and c.has_net("y")
        assert c.num_instances == 2

    def test_duplicate_instance_raises(self):
        c = _simple_inverter()
        with pytest.raises(NetlistError):
            c.add_instance("mp", dev.RESISTOR, {"p": "a", "n": "y"})

    def test_missing_terminal_raises(self):
        c = Circuit("x")
        with pytest.raises(NetlistError):
            c.add_instance("r1", dev.RESISTOR, {"p": "a"})

    def test_unknown_terminal_raises(self):
        c = Circuit("x")
        with pytest.raises(NetlistError):
            c.add_instance("r1", dev.RESISTOR, {"p": "a", "n": "b", "q": "c"})

    def test_unknown_net_lookup_raises(self):
        with pytest.raises(NetlistError):
            Circuit("x").net("ghost")

    def test_unknown_instance_lookup_raises(self):
        with pytest.raises(NetlistError):
            Circuit("x").instance("ghost")


class TestInstance:
    def test_param_explicit(self):
        c = _simple_inverter()
        assert c.instance("mp").param("NFIN") == 4

    def test_param_spec_default(self):
        c = _simple_inverter()
        assert c.instance("mp").param("L") == 16e-9

    def test_param_fallback_default(self):
        c = _simple_inverter()
        assert c.instance("mp").param("XYZ", 7.0) == 7.0

    def test_param_missing_raises(self):
        c = _simple_inverter()
        with pytest.raises(NetlistError):
            c.instance("mp").param("XYZ")

    def test_net_of(self):
        c = _simple_inverter()
        assert c.instance("mn").net_of("gate") == "a"
        with pytest.raises(NetlistError):
            c.instance("mn").net_of("emitter")


class TestTopology:
    def test_fanout_counts_terminals(self):
        c = _simple_inverter()
        assert c.fanout("a") == 2  # two gates
        assert c.fanout("y") == 2  # two drains
        assert c.fanout("vdd") == 2  # source + bulk of mp

    def test_instances_on_net(self):
        c = _simple_inverter()
        hits = c.instances_on_net("y")
        assert {(inst.name, term) for inst, term in hits} == {("mp", "drain"), ("mn", "drain")}

    def test_signal_nets_exclude_rails(self):
        c = _simple_inverter()
        names = {net.name for net in c.signal_nets()}
        assert names == {"a", "y"}

    def test_device_counts_zero_filled(self):
        counts = _simple_inverter().device_counts()
        assert counts[dev.TRANSISTOR] == 2
        assert counts[dev.BJT] == 0

    def test_stats_row(self):
        row = _simple_inverter().stats_row()
        assert row["net"] == 2
        assert row[dev.TRANSISTOR] == 2

    def test_pin_index_follows_insertion_and_terminal_order(self):
        c = _simple_inverter()
        hits = c.instances_on_net("vdd")
        assert [(inst.name, term) for inst, term in hits] == [
            ("mp", "source"), ("mp", "bulk"),
        ]
        hits.clear()  # callers get a copy, not the index
        assert c.fanout("vdd") == 2
        assert c.instances_on_net("nowhere") == [] and c.fanout("nowhere") == 0


def _scan_instances_on_net(circuit, net_name):
    """The reference query: scan every instance's terminals."""
    return [
        (inst, terminal)
        for inst in circuit.instances()
        for terminal, net in inst.conns.items()
        if net == net_name
    ]


def _bundle_bytes(bundle):
    """Graphs, scaled-feature statistics and all 13 targets, as bytes."""
    from repro.data.targets import ALL_TARGETS

    chunks = []
    for split in ("train", "test"):
        for record in bundle.records(split):
            graph = record.graph
            chunks.append(record.name.encode())
            for name in sorted(graph.features):
                chunks += [
                    name.encode(),
                    graph.features[name].tobytes(),
                    graph.nodes_of_type[name].tobytes(),
                ]
            for name in sorted(graph.edges):
                src, dst = graph.edges[name]
                chunks += [name.encode(), src.tobytes(), dst.tobytes()]
            for spec in ALL_TARGETS:
                chunks += [
                    spec.node_ids(graph).tobytes(),
                    spec.values(graph, record.layout).tobytes(),
                ]
    for name in sorted(bundle.scaler.means):
        chunks += [bundle.scaler.means[name].tobytes(), bundle.scaler.stds[name].tobytes()]
    return chunks


def test_build_bundle_matches_scanning_fanout(monkeypatch):
    """The net -> pins index gives the graphs, features and targets the
    instance scan gives, byte for byte."""
    from repro.data import build_bundle

    indexed = _bundle_bytes(build_bundle(seed=1, scale=0.1))
    monkeypatch.setattr(Circuit, "instances_on_net", _scan_instances_on_net)
    monkeypatch.setattr(
        Circuit, "fanout", lambda self, net: len(_scan_instances_on_net(self, net))
    )
    assert _bundle_bytes(build_bundle(seed=1, scale=0.1)) == indexed


class TestEmbed:
    def test_embed_flattens_with_prefix(self):
        parent = Circuit("top")
        parent.embed(_simple_inverter(), "u0", {"a": "in", "y": "mid"})
        parent.embed(_simple_inverter(), "u1", {"a": "mid", "y": "out"})
        assert parent.num_instances == 4
        assert parent.instance("u0/mp").net_of("gate") == "in"
        assert parent.instance("u1/mp").net_of("drain") == "out"

    def test_supply_nets_stay_global(self):
        parent = Circuit("top")
        parent.embed(_simple_inverter(), "u0", {"a": "in", "y": "out"})
        assert parent.has_net("vdd")
        assert not parent.has_net("u0/vdd")

    def test_internal_nets_prefixed(self):
        child = Circuit("cell", ports=["a"])
        child.add_instance("r1", dev.RESISTOR, {"p": "a", "n": "internal"})
        parent = Circuit("top")
        parent.embed(child, "u0", {"a": "x"})
        assert parent.has_net("u0/internal")

    def test_unmapped_port_raises(self):
        parent = Circuit("top")
        with pytest.raises(NetlistError):
            parent.embed(_simple_inverter(), "u0", {"a": "in"})

    def test_non_port_mapping_raises(self):
        parent = Circuit("top")
        with pytest.raises(NetlistError):
            parent.embed(_simple_inverter(), "u0", {"a": "in", "y": "out", "zz": "q"})

    def test_nested_embed(self):
        inner = _simple_inverter()
        middle = Circuit("mid", ports=["i", "o"])
        middle.embed(inner, "core", {"a": "i", "y": "o"})
        top = Circuit("top")
        top.embed(middle, "blk", {"i": "in", "o": "out"})
        assert top.instance("blk/core/mp").net_of("gate") == "in"


class TestCopy:
    def test_copy_is_deep(self):
        original = _simple_inverter()
        dup = original.copy()
        dup.instance("mp").params["NFIN"] = 99
        assert original.instance("mp").param("NFIN") == 4

    def test_copy_rename(self):
        assert _simple_inverter().copy("other").name == "other"
