"""Schematic-to-graph conversion (paper §II-B).

Devices and signal nets both become graph nodes; every device terminal
connected to a signal net contributes two opposing typed edges
(``net->transistor_gate`` and ``transistor_gate->net``).  Supply and ground
nets are dropped, as are the edges that would touch them.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.circuits import devices as dev
from repro.circuits.netlist import Circuit
from repro.errors import GraphConstructionError
from repro.graph.features import feature_dim, net_features
from repro.graph.hetero import HeteroGraph, edge_type_name

#: Histogram buckets for graph sizes (node/edge counts).
GRAPH_SIZE_BUCKETS = (10, 30, 100, 300, 1000, 3000, 10000, float("inf"))


def build_graph(circuit: Circuit, validate: bool = True) -> HeteroGraph:
    """Convert a flat circuit into a :class:`HeteroGraph`.

    Raises
    ------
    GraphConstructionError
        If the circuit yields no net nodes (nothing to predict on).
    """
    with obs.span("graph.build", circuit=circuit.name):
        graph = _build_graph(circuit, validate)
    obs.inc("graphs_built_total")
    obs.observe("graph.nodes", graph.num_nodes, buckets=GRAPH_SIZE_BUCKETS)
    obs.observe("graph.edges", graph.num_edges, buckets=GRAPH_SIZE_BUCKETS)
    return graph


def _build_graph(circuit: Circuit, validate: bool) -> HeteroGraph:
    """One pass over the instances: node ids, feature rows and terminals.

    Net nodes come first, in net order, then one node per instance in
    instance order.  Node types are listed net first, then in order of
    first appearance; edge types (one twin pair per device type and
    terminal) in order of their first signal-net terminal.
    """
    signal_nets = [net.name for net in circuit.signal_nets()]
    if not signal_nets:
        raise GraphConstructionError(
            f"circuit {circuit.name!r} has no signal nets to build a graph from"
        )
    instances = list(circuit.instances())
    device_names = [inst.name for inst in instances]
    num_nets = len(signal_nets)
    graph = HeteroGraph(
        name=circuit.name,
        node_type_of=[dev.NET] * num_nets + [inst.device_type for inst in instances],
        node_name_of=signal_nets + device_names,
        net_nodes=dict(zip(signal_nets, range(num_nets))),
        device_nodes=dict(zip(device_names, range(num_nets, num_nets + len(instances)))),
    )

    # --- nodes and terminals, grouped by node type -----------------
    #: node type -> (node ids, feature rows, terminal -> (net ids,
    #: device ids), the type's feature-vector function)
    by_type: dict[str, tuple[list[int], list[list[float]], dict, object]] = {
        dev.NET: (
            range(num_nets),
            [net_features(circuit, net_name) for net_name in signal_nets],
            {},
            None,
        )
    }
    #: (device type, terminal) pairs in order of first signal-net edge
    edge_order: list[tuple[str, str]] = []
    net_id_of = graph.net_nodes.get
    for node_id, inst in enumerate(instances, num_nets):
        device_type = inst.device_type
        group = by_type.get(device_type)
        if group is None:
            group = by_type[device_type] = (
                [], [], {}, dev.spec_for(device_type).feature_vector
            )
        ids, rows, terminals, feature_vector = group
        ids.append(node_id)
        rows.append(feature_vector(inst.params))
        for terminal, net_name in inst.conns.items():
            net_id = net_id_of(net_name)
            if net_id is None:  # supply/ground: ignored (paper §II-B)
                continue
            pair = terminals.get(terminal)
            if pair is None:
                pair = terminals[terminal] = ([], [])
                edge_order.append((device_type, terminal))
            pair[0].append(net_id)
            pair[1].append(node_id)

    for node_type, (ids, rows, _, _) in by_type.items():
        graph.nodes_of_type[node_type] = np.array(ids, dtype=np.int64)
        # staticcheck: ignore[precision-policy] -- raw
        # features are stored float64-canonical; the model casts at the
        # encoder boundary, so nothing float64 survives into the kernels
        feats = np.array(rows, dtype=np.float64)
        expected = feature_dim(node_type)
        if feats.shape[1] != expected:
            raise GraphConstructionError(
                f"feature dim mismatch for {node_type!r}: "
                f"{feats.shape[1]} != {expected}"
            )
        graph.features[node_type] = feats

    # --- edges: a twin pair per (device type, terminal) --------------
    for device_type, terminal in edge_order:
        net_ids, device_ids = by_type[device_type][2][terminal]
        kind = f"{device_type}_{terminal}"
        graph.edges[edge_type_name(dev.NET, kind)] = (
            np.array(net_ids, dtype=np.int64),
            np.array(device_ids, dtype=np.int64),
        )
        graph.edges[edge_type_name(kind, dev.NET)] = (
            np.array(device_ids, dtype=np.int64),
            np.array(net_ids, dtype=np.int64),
        )

    if validate:
        graph.validate()
    return graph


def all_edge_type_names() -> list[str]:
    """Every edge type the builder can emit, for model weight allocation."""
    names: list[str] = []
    for device_type in dev.DEVICE_TYPES:
        for terminal in dev.spec_for(device_type).terminals:
            kind = f"{device_type}_{terminal}"
            names.append(edge_type_name(dev.NET, kind))
            names.append(edge_type_name(kind, dev.NET))
    return names
