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
from repro.graph.features import device_features, feature_dim, net_features
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
    graph = HeteroGraph(name=circuit.name)

    # --- nodes -------------------------------------------------------
    type_members: dict[str, list[int]] = {}
    type_features: dict[str, list[list[float]]] = {}

    def add_node(node_type: str, name: str, feats: list[float]) -> int:
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
            dev.NET, net_name, net_features(circuit, net_name)
        )
    for inst in circuit.instances():
        graph.device_nodes[inst.name] = add_node(
            inst.device_type, inst.name, device_features(inst)
        )

    for node_type, members in type_members.items():
        graph.nodes_of_type[node_type] = np.asarray(members, dtype=np.int64)
        # staticcheck: ignore[precision-policy] -- raw
        # features are stored float64-canonical; the model casts at the
        # encoder boundary, so nothing float64 survives into the kernels
        feats = np.asarray(type_features[node_type], dtype=np.float64)
        expected = feature_dim(node_type)
        if feats.shape[1] != expected:
            raise GraphConstructionError(
                f"feature dim mismatch for {node_type!r}: "
                f"{feats.shape[1]} != {expected}"
            )
        graph.features[node_type] = feats

    # --- edges -------------------------------------------------------
    edge_lists: dict[str, tuple[list[int], list[int]]] = {}

    def add_edge(edge_type: str, src: int, dst: int) -> None:
        srcs, dsts = edge_lists.setdefault(edge_type, ([], []))
        srcs.append(src)
        dsts.append(dst)

    for inst in circuit.instances():
        device_id = graph.device_nodes[inst.name]
        for terminal, net_name in inst.conns.items():
            net_id = graph.net_nodes.get(net_name)
            if net_id is None:  # supply/ground: ignored (paper §II-B)
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


def all_edge_type_names() -> list[str]:
    """Every edge type the builder can emit, for model weight allocation."""
    names: list[str] = []
    for device_type in dev.DEVICE_TYPES:
        for terminal in dev.spec_for(device_type).terminals:
            kind = f"{device_type}_{terminal}"
            names.append(edge_type_name(dev.NET, kind))
            names.append(edge_type_name(kind, dev.NET))
    return names
