"""The per-card, per-update and per-edge netlist front end: the parity oracle.

``repro.circuits.spice.read_spice`` (with ``Circuit.add_instance``),
``repro.data.fingerprint.circuit_fingerprint`` and
``repro.graph.builder.build_graph`` each make one pass over their input.
The functions here are the direct forms they replaced, kept verbatim in
behaviour (the library's reader also refuses a lone surrogate in an
element card, which these accept):

* :func:`read_spice` re-joins a card for every ``+`` line, runs the
  parameter regex on every token and ``parse_value`` on every value,
  builds the handler table per card and copies each parameter dict twice;
* :func:`add_instance` adds every net before indexing its pins;
* :func:`circuit_fingerprint` feeds the hasher one name, terminal and
  parameter at a time;
* :func:`build_graph` adds one node and one edge pair at a time through
  closures, naming the edge types per terminal.

They build real :class:`~repro.circuits.netlist.Circuit` and
:class:`~repro.graph.hetero.HeteroGraph` objects (writing the circuit's
private indexes as the replaced ``add_instance`` did), so
:func:`circuit_state` and :func:`graph_state` compare them field by field
with what the library builds: dict order, value types and array dtypes
included.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from repro.circuits import devices as dev
from repro.circuits.netlist import Circuit, Instance, is_supply_name
from repro.circuits.spice import MODEL_MAP
from repro.errors import GraphConstructionError, NetlistError, SpiceSyntaxError
from repro.graph.features import feature_dim
from repro.graph.hetero import HeteroGraph, edge_type_name
from repro.units import parse_value

_PARAM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(\S+)$")


# ----------------------------------------------------------------------
# Circuit construction
# ----------------------------------------------------------------------
def add_instance(circuit: Circuit, name, device_type, conns, params=None):
    if name in circuit._instances:
        raise NetlistError(f"duplicate instance name {name!r} in {circuit.name!r}")
    spec = dev.spec_for(device_type)
    missing = [t for t in spec.terminals if t not in conns]
    if missing:
        raise NetlistError(
            f"instance {name!r} of type {device_type!r} missing terminals {missing}"
        )
    extra = [t for t in conns if t not in spec.terminals]
    if extra:
        raise NetlistError(
            f"instance {name!r} of type {device_type!r} has unknown terminals {extra}"
        )
    for net_name in conns.values():
        circuit.add_net(net_name)
    inst = Instance(name, device_type, dict(conns), dict(params or {}))
    circuit._instances[name] = inst
    for terminal, net_name in inst.conns.items():
        circuit._pins.setdefault(net_name, []).append((inst, terminal))
    return inst


def embed(circuit: Circuit, child: Circuit, prefix: str, port_map: dict) -> None:
    missing = [p for p in child.ports if p not in port_map]
    if missing:
        raise NetlistError(f"embedding {child.name!r}: unmapped ports {missing}")
    unknown = [p for p in port_map if p not in child.ports]
    if unknown:
        raise NetlistError(f"embedding {child.name!r}: {unknown} are not ports")

    def map_net(net_name: str) -> str:
        if net_name in port_map:
            return port_map[net_name]
        if is_supply_name(net_name):
            return net_name
        return f"{prefix}/{net_name}"

    for net in child.nets():
        circuit.add_net(map_net(net.name))
    for inst in child.instances():
        add_instance(
            circuit,
            f"{prefix}/{inst.name}",
            inst.device_type,
            {t: map_net(n) for t, n in inst.conns.items()},
            dict(inst.params),
        )


# ----------------------------------------------------------------------
# SPICE reader
# ----------------------------------------------------------------------
def _join_continuations(text: str) -> list[tuple[int, str]]:
    cards: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not cards:
                raise SpiceSyntaxError("continuation line with nothing to continue", line_no)
            prev_no, prev = cards[-1]
            cards[-1] = (prev_no, f"{prev} {stripped[1:].strip()}")
        else:
            cards.append((line_no, stripped))
    return cards


def _split_params(tokens):
    positional, params = [], {}
    for token in tokens:
        match = _PARAM_RE.match(token)
        if match:
            params[match.group(1).upper()] = parse_value(match.group(2))
        else:
            positional.append(token)
    return positional, params


class SpiceReader:
    def __init__(self):
        self.subckts: dict[str, Circuit] = {}

    def parse(self, text: str, name: str = "top") -> Circuit:
        top = Circuit(name)
        current = top
        stack: list[Circuit] = []
        for line_no, card in _join_continuations(text):
            lower = card.lower()
            if lower.startswith(".subckt"):
                tokens = card.split()
                if len(tokens) < 2:
                    raise SpiceSyntaxError(".subckt needs a name", line_no)
                sub = Circuit(tokens[1], ports=tokens[2:])
                stack.append(current)
                current = sub
            elif lower.startswith(".ends"):
                if not stack:
                    raise SpiceSyntaxError(".ends without .subckt", line_no)
                self.subckts[current.name] = current
                current = stack.pop()
            elif lower.startswith(".end"):
                break
            elif lower.startswith("."):
                continue
            else:
                self._parse_element(current, card, line_no)
        if stack:
            raise SpiceSyntaxError(f"unterminated .subckt {current.name!r}")
        return top

    def _parse_element(self, circuit, card, line_no):
        tokens = card.split()
        letter = tokens[0][0].upper()
        inst_name = tokens[0]
        if len(inst_name) < 2:
            raise SpiceSyntaxError(f"element card {tokens[0]!r} has no name", line_no)
        rest, params = _split_params(tokens[1:])
        handler = {
            "M": self._mosfet,
            "R": self._resistor,
            "C": self._capacitor,
            "D": self._diode,
            "Q": self._bjt,
            "X": self._subckt_call,
        }.get(letter)
        if handler is None:
            raise SpiceSyntaxError(f"unsupported element letter {letter!r}", line_no)
        handler(circuit, inst_name, rest, params, line_no)

    def _lookup_model(self, model, line_no):
        try:
            return MODEL_MAP[model.lower()]
        except KeyError:
            raise SpiceSyntaxError(f"unknown model {model!r}", line_no) from None

    def _mosfet(self, circuit, name, rest, params, line_no):
        if len(rest) != 5:
            raise SpiceSyntaxError(
                f"MOSFET {name!r} needs 4 nets + model, got {rest}", line_no
            )
        d, g, s, b, model = rest
        device_type, polarity = self._lookup_model(model, line_no)
        if not dev.is_mos(device_type):
            raise SpiceSyntaxError(f"model {model!r} is not a MOSFET", line_no)
        params = dict(params)
        params.setdefault("TYPE", polarity)
        add_instance(
            circuit, name, device_type,
            {"drain": d, "gate": g, "source": s, "bulk": b}, params,
        )

    def _resistor(self, circuit, name, rest, params, line_no):
        if len(rest) < 2:
            raise SpiceSyntaxError(f"resistor {name!r} needs 2 nets", line_no)
        p, n = rest[0], rest[1]
        params = dict(params)
        if len(rest) >= 3:
            params.setdefault("R", parse_value(rest[2]))
        add_instance(circuit, name, dev.RESISTOR, {"p": p, "n": n}, params)

    def _capacitor(self, circuit, name, rest, params, line_no):
        if len(rest) < 2:
            raise SpiceSyntaxError(f"capacitor {name!r} needs 2 nets", line_no)
        p, n = rest[0], rest[1]
        params = dict(params)
        if len(rest) >= 3:
            params.setdefault("C", parse_value(rest[2]))
        add_instance(circuit, name, dev.CAPACITOR, {"p": p, "n": n}, params)

    def _diode(self, circuit, name, rest, params, line_no):
        if len(rest) != 3:
            raise SpiceSyntaxError(f"diode {name!r} needs 2 nets + model", line_no)
        p, n, model = rest
        device_type, _ = self._lookup_model(model, line_no)
        if device_type != dev.DIODE:
            raise SpiceSyntaxError(f"model {model!r} is not a diode", line_no)
        add_instance(circuit, name, dev.DIODE, {"p": p, "n": n}, dict(params))

    def _bjt(self, circuit, name, rest, params, line_no):
        if len(rest) != 4:
            raise SpiceSyntaxError(f"BJT {name!r} needs 3 nets + model", line_no)
        c, b, e, model = rest
        device_type, _ = self._lookup_model(model, line_no)
        if device_type != dev.BJT:
            raise SpiceSyntaxError(f"model {model!r} is not a BJT", line_no)
        params = dict(params)
        params.setdefault("POLARITY", 1.0 if model.lower() == "npn" else -1.0)
        add_instance(circuit, name, dev.BJT, {"c": c, "b": b, "e": e}, params)

    def _subckt_call(self, circuit, name, rest, params, line_no):
        if not rest:
            raise SpiceSyntaxError(f"X card {name!r} needs a subcircuit name", line_no)
        sub_name = rest[-1]
        nets = rest[:-1]
        if sub_name not in self.subckts:
            raise SpiceSyntaxError(f"undefined subcircuit {sub_name!r}", line_no)
        sub = self.subckts[sub_name]
        if len(nets) != len(sub.ports):
            raise SpiceSyntaxError(
                f"X card {name!r}: {len(nets)} nets for {len(sub.ports)} ports",
                line_no,
            )
        embed(circuit, sub, name, dict(zip(sub.ports, nets)))


def read_spice(text: str, name: str = "top") -> Circuit:
    return SpiceReader().parse(text, name=name)


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def circuit_fingerprint(circuit: Circuit) -> str:
    hasher = hashlib.sha256()
    hasher.update(circuit.name.encode())
    hasher.update(b"|ports|")
    for port in circuit.ports:
        hasher.update(port.encode() + b";")
    hasher.update(b"|nets|")
    for net in sorted(net.name for net in circuit.nets()):
        hasher.update(net.encode() + b";")
    hasher.update(b"|instances|")
    for name in sorted(inst.name for inst in circuit.instances()):
        inst = circuit.instance(name)
        hasher.update(f"{inst.name}:{inst.device_type}".encode())
        for terminal in sorted(inst.conns):
            hasher.update(f"|{terminal}={inst.conns[terminal]}".encode())
        for param in sorted(inst.params):
            hasher.update(f"|{param}={inst.params[param]!r}".encode())
        hasher.update(b";")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Graph builder
# ----------------------------------------------------------------------
def _device_features(inst: Instance) -> list[float]:
    spec = dev.spec_for(inst.device_type)
    merged = {**spec.default_params, **inst.params}
    try:
        return [float(merged[name]) for name in spec.features]
    except KeyError as exc:
        raise NetlistError(
            f"device type {spec.name!r} missing feature {exc.args[0]!r}"
        ) from None


def build_graph(circuit: Circuit, validate: bool = True) -> HeteroGraph:
    graph = HeteroGraph(name=circuit.name)
    type_members: dict[str, list[int]] = {}
    type_features: dict[str, list[list[float]]] = {}

    def add_node(node_type, name, feats):
        node_id = len(graph.node_type_of)
        graph.node_type_of.append(node_type)
        graph.node_name_of.append(name)
        type_members.setdefault(node_type, []).append(node_id)
        type_features.setdefault(node_type, []).append(feats)
        return node_id

    signal_nets = [net.name for net in circuit.signal_nets()]
    if not signal_nets:
        raise GraphConstructionError(
            f"circuit {circuit.name!r} has no signal nets to build a graph from"
        )
    for net_name in signal_nets:
        graph.net_nodes[net_name] = add_node(
            dev.NET, net_name, [float(circuit.fanout(net_name))]
        )
    for inst in circuit.instances():
        graph.device_nodes[inst.name] = add_node(
            inst.device_type, inst.name, _device_features(inst)
        )

    for node_type, members in type_members.items():
        graph.nodes_of_type[node_type] = np.asarray(members, dtype=np.int64)
        feats = np.asarray(type_features[node_type], dtype=np.float64)
        expected = feature_dim(node_type)
        if feats.shape[1] != expected:
            raise GraphConstructionError(
                f"feature dim mismatch for {node_type!r}: "
                f"{feats.shape[1]} != {expected}"
            )
        graph.features[node_type] = feats

    edge_lists: dict[str, tuple[list[int], list[int]]] = {}

    def add_edge(edge_type, src, dst):
        srcs, dsts = edge_lists.setdefault(edge_type, ([], []))
        srcs.append(src)
        dsts.append(dst)

    for inst in circuit.instances():
        device_id = graph.device_nodes[inst.name]
        for terminal, net_name in inst.conns.items():
            net_id = graph.net_nodes.get(net_name)
            if net_id is None:
                continue
            terminal_kind = f"{inst.device_type}_{terminal}"
            add_edge(edge_type_name(dev.NET, terminal_kind), net_id, device_id)
            add_edge(edge_type_name(terminal_kind, dev.NET), device_id, net_id)

    for edge_type, (srcs, dsts) in edge_lists.items():
        graph.edges[edge_type] = (
            np.asarray(srcs, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64),
        )
    if validate:
        graph.validate()
    return graph


# ----------------------------------------------------------------------
# Field-by-field comparison
# ----------------------------------------------------------------------
def _value(value):
    """A value with its type, so 1 != 1.0 and 0.0 != -0.0 here."""
    return type(value).__name__, repr(value)


def circuit_state(circuit: Circuit):
    """Every field of a circuit, in dict order, values typed."""
    instances = circuit._instances
    return (
        circuit.name,
        list(circuit.ports),
        [(key, net.name) for key, net in circuit._nets.items()],
        [
            (key, inst.name, inst.device_type, list(inst.conns.items()),
             [(param, _value(v)) for param, v in inst.params.items()])
            for key, inst in instances.items()
        ],
        [
            (net, [(inst.name, terminal, instances[inst.name] is inst)
                   for inst, terminal in pins])
            for net, pins in circuit._pins.items()
        ],
    )


def _array(array):
    return array.dtype.str, array.shape, array.strides, array.tobytes()


def graph_state(graph: HeteroGraph):
    """Every field of a graph, in dict order, arrays with their dtypes."""
    return (
        graph.name,
        [_value(v) for v in graph.node_type_of],
        [_value(v) for v in graph.node_name_of],
        [(key, _array(ids)) for key, ids in graph.nodes_of_type.items()],
        [(key, _array(feats)) for key, feats in graph.features.items()],
        [(key, _array(src), _array(dst)) for key, (src, dst) in graph.edges.items()],
        [(key, _value(v)) for key, v in graph.net_nodes.items()],
        [(key, _value(v)) for key, v in graph.device_nodes.items()],
    )
