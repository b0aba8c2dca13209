"""Model-ready graph inputs.

:class:`GraphInputs` packages a heterogeneous graph's scaled features and
edge arrays in the exact form the GNN layers consume: per-type feature
matrices for the input transform, per-edge-type COO arrays, and one
merged edge list.  The merged list is type-major (one contiguous block
per edge type), so the baseline GNNs that ignore edge types read it
whole and the relational layers read it block by block
(:meth:`GraphInputs.edge_blocks`).

It is also the home of the *graph compute plan*: every index-derived
artifact the convolution layers need — self-loop-augmented edge lists,
degree vectors, GCN/RGCN normalisers, and the
:class:`~repro.nn.plan.SegmentPlan` reduction schedules for the segment
kernels — is computed lazily once per graph and cached here.  A merged
training split (shared through :class:`repro.flows.runtime.MergedInputsCache`)
therefore pays for each argsort/bincount exactly once across all epochs,
targets and ensemble members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import CircuitRecord
from repro.data.normalize import FeatureScaler
from repro.errors import ShapeError
from repro.graph.hetero import HeteroGraph
from repro.nn.plan import SegmentPlan
from repro.nn import precision


@dataclass
class GraphInputs:
    """Preprocessed tensors for one graph (or a merged split).

    Arrays handed out by the cached accessors (edge lists, degrees,
    normalisers, plans) are shared across callers — treat them as
    read-only.
    """

    num_nodes: int
    features: dict[str, np.ndarray]
    nodes_of_type: dict[str, np.ndarray]
    edges: dict[str, tuple[np.ndarray, np.ndarray]]
    merged_src: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    merged_dst: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: lazy cache of plans/normalisers; never compared or merged
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_graph(cls, graph: HeteroGraph, scaler: FeatureScaler) -> "GraphInputs":
        """Build inputs from a graph using a fitted feature scaler."""
        scaled = scaler.transform(graph)
        if graph.edges:
            merged_src = np.concatenate(
                [graph.edges[et][0] for et in graph.edge_types]
            )
            merged_dst = np.concatenate(
                [graph.edges[et][1] for et in graph.edge_types]
            )
        else:
            merged_src = np.empty(0, dtype=np.int64)
            merged_dst = np.empty(0, dtype=np.int64)
        return cls(
            num_nodes=graph.num_nodes,
            features=scaled,
            nodes_of_type=dict(graph.nodes_of_type),
            edges=dict(graph.edges),
            merged_src=merged_src,
            merged_dst=merged_dst,
        )

    @classmethod
    def from_record(cls, record: CircuitRecord, scaler: FeatureScaler) -> "GraphInputs":
        """Convenience: build inputs straight from a dataset record."""
        return cls.from_graph(record.graph, scaler)

    @classmethod
    def merge(
        cls, inputs: "list[GraphInputs]"
    ) -> "tuple[GraphInputs, np.ndarray]":
        """Disjoint-union several graphs' inputs into one batch.

        Returns ``(merged, offsets)`` where ``offsets[k]`` is the global
        node-id offset of graph ``k``.  The graphs stay disjoint
        components, so a forward pass over the merged inputs gives each
        graph's nodes what running that graph alone gives: this is the
        batched path of :class:`repro.api.Engine` and of training.

        Per-type feature matrices, node-id lists and COO edge arrays are
        concatenated in graph order; the homogenised edge list is rebuilt
        **type-major** (all edges of the lexicographically first type
        across every graph, then the next type, ...), matching exactly
        what :meth:`from_graph` produces for a pre-merged
        :class:`~repro.graph.hetero.HeteroGraph` — so the union built from
        per-graph inputs is bit-identical, arrays and plans both, to one
        built from a graph-level merge.

        The union's plans are built on first use from its own arrays, like
        any other inputs' (a forward reads only some of them: the stacked
        ParaGraph layers never read the self-loop plans).  A stable argsort
        of the merged ids gives the plan that stitching the per-graph
        plans would (see :meth:`SegmentPlan.concat`).
        """
        if not inputs:
            raise ValueError("GraphInputs.merge needs at least one graph")
        if len(inputs) == 1:
            return inputs[0], np.zeros(1, dtype=np.int64)
        offsets = np.cumsum([0] + [item.num_nodes for item in inputs[:-1]])
        num_nodes = int(offsets[-1] + inputs[-1].num_nodes)
        features: dict[str, list[np.ndarray]] = {}
        nodes_of_type: dict[str, list[np.ndarray]] = {}
        edges: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {}
        for item, offset in zip(inputs, offsets):
            for type_name, feats in item.features.items():
                features.setdefault(type_name, []).append(feats)
                nodes_of_type.setdefault(type_name, []).append(
                    item.nodes_of_type[type_name] + offset
                )
            for edge_type, (src, dst) in item.edges.items():
                srcs, dsts = edges.setdefault(edge_type, ([], []))
                srcs.append(src + offset)
                dsts.append(dst + offset)
        merged_edges = {
            t: (np.concatenate(s), np.concatenate(d))
            for t, (s, d) in edges.items()
        }
        if merged_edges:
            # type-major, like from_graph over HeteroGraph.edge_types
            merged_src = np.concatenate(
                [merged_edges[et][0] for et in sorted(merged_edges)]
            )
            merged_dst = np.concatenate(
                [merged_edges[et][1] for et in sorted(merged_edges)]
            )
        else:
            merged_src = np.empty(0, dtype=np.int64)
            merged_dst = np.empty(0, dtype=np.int64)
        merged = cls(
            num_nodes=num_nodes,
            features={t: np.concatenate(f, axis=0) for t, f in features.items()},
            nodes_of_type={t: np.concatenate(n) for t, n in nodes_of_type.items()},
            edges=merged_edges,
            merged_src=merged_src,
            merged_dst=merged_dst,
        )
        return merged, offsets

    # ------------------------------------------------------------------
    # Cached graph compute plan
    # ------------------------------------------------------------------
    def _cached(self, key, build):
        value = self._cache.get(key)
        if value is None:
            value = build()
            self._cache[key] = value
        return value

    def with_self_loops(self) -> tuple[np.ndarray, np.ndarray]:
        """Merged edges plus one self-loop per node (GCN/GAT convention)."""

        def build():
            loops = np.arange(self.num_nodes, dtype=np.int64)
            return (
                np.concatenate([self.merged_src, loops]),
                np.concatenate([self.merged_dst, loops]),
            )

        return self._cached("self_loop_edges", build)

    def in_degrees(self, include_self_loops: bool = False) -> np.ndarray:
        """Integral in-degree per node over the merged edge list.

        Counts stay int64; dtype-sensitive consumers cast at their own
        boundary (:meth:`gcn_inv_sqrt_degree` keys its cache by dtype).
        """

        def build():
            deg = np.bincount(self.merged_dst, minlength=self.num_nodes)
            if include_self_loops:
                deg = deg + 1
            return deg

        return self._cached(("in_degrees", bool(include_self_loops)), build)

    # -- SegmentPlan schedules (see repro.nn.plan) ----------------------
    def merged_plans(self) -> tuple[SegmentPlan, SegmentPlan]:
        """(src, dst) reduction plans over the merged edge list."""
        return (
            self._cached(
                "merged_src_plan",
                lambda: SegmentPlan.build(self.merged_src, self.num_nodes),
            ),
            self._cached(
                "merged_dst_plan",
                lambda: SegmentPlan.build(self.merged_dst, self.num_nodes),
            ),
        )

    def loop_plans(self) -> tuple[SegmentPlan, SegmentPlan]:
        """(src, dst) plans over the self-loop-augmented merged edge list."""
        src, dst = self.with_self_loops()
        return (
            self._cached(
                "loop_src_plan", lambda: SegmentPlan.build(src, self.num_nodes)
            ),
            self._cached(
                "loop_dst_plan", lambda: SegmentPlan.build(dst, self.num_nodes)
            ),
        )

    def edge_plans(self, edge_type: str) -> tuple[SegmentPlan, SegmentPlan]:
        """(src, dst) plans for one edge type's COO arrays."""
        return self._edge_plan(edge_type, 0), self._edge_plan(edge_type, 1)

    def _edge_plan(self, edge_type: str, end: int) -> SegmentPlan:
        """The plan over one end (0 = source, 1 = destination) of an edge
        type's COO arrays, built on first use."""
        return self._cached(
            ("edge_dst_plan" if end else "edge_src_plan", edge_type),
            lambda: SegmentPlan.build(self.edges[edge_type][end], self.num_nodes),
        )

    # -- Per-edge-type blocks of the merged edge list --------------------
    def edge_blocks(self) -> tuple[list[str], np.ndarray]:
        """The edge types of the merged list and their row bounds.

        ``merged_src``/``merged_dst`` are type-major: all edges of the
        first type in sorted order, then the next type, and so on (both
        :meth:`from_graph` and :meth:`merge` lay them out that
        way).  Returns ``(names, bounds)`` over the types that have edges:
        type ``names[t]`` owns rows ``bounds[t]:bounds[t + 1]``.
        """

        def build():
            names = [t for t in sorted(self.edges) if len(self.edges[t][0])]
            bounds = np.zeros(len(names) + 1, dtype=np.int64)
            np.cumsum([len(self.edges[t][0]) for t in names], out=bounds[1:])
            if bounds[-1] != len(self.merged_dst):
                raise ShapeError(
                    f"edge types hold {bounds[-1]} edges but the merged "
                    f"list has {len(self.merged_dst)}"
                )
            return names, bounds

        return self._cached("edge_blocks", build)

    def type_dst_plan(self) -> SegmentPlan:
        """Plan over the (edge type, destination) pairs of the merged list.

        Segment ``k`` is the ``k``-th pair that occurs, ordered by type
        block, then destination id, so there are at most E segments (not
        ``T * num_nodes``).  Each type's cached destination plan is
        compacted to the destinations it reaches, and the compacted plans
        are stitched with :meth:`SegmentPlan.concat` (the type blocks are
        contiguous and their segment ranges ascend), so building it never
        sorts.  Attention softmaxes and per-type means run over it.
        """

        def build():
            names, _ = self.edge_blocks()
            compact = [self._edge_plan(t, 1).compact() for t in names]
            sizes = [plan.num_segments for plan in compact]
            offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64)
            return SegmentPlan.concat(compact, offsets, int(sum(sizes)))

        return self._cached("type_dst_plan", build)

    def type_node_rows(self) -> np.ndarray:
        """Rows of a per-node score table for every edge, both ends.

        With T edge types present, a ParaGraph layer's ``(N, 2*T*H)``
        per-node attention scores (the destination halves of every type,
        then the source halves) viewed as ``(N*2*T, H)`` hold node
        ``n``'s destination score for type ``t`` in row ``n*2T + t`` and
        its source score in row ``n*2T + T + t``.  Returns the ``(2E,)``
        rows: every merged edge's destination row, then every edge's
        source row.
        """

        def build():
            names, bounds = self.edge_blocks()
            width = 2 * len(names)
            types = np.repeat(
                np.arange(len(names), dtype=np.int64), np.diff(bounds)
            )
            return np.concatenate([
                self.merged_dst * width + types,
                self.merged_src * width + len(names) + types,
            ])

        return self._cached("type_node_rows", build)

    def type_node_plan(self) -> SegmentPlan:
        """Plan over :meth:`type_node_rows` (the score gather's backward)."""
        return self._cached(
            "type_node_plan",
            lambda: SegmentPlan.build(
                self.type_node_rows(),
                self.num_nodes * 2 * len(self.edge_blocks()[0]),
            ),
        )

    def type_dst_inv_counts(self, dtype: "np.dtype | None" = None) -> np.ndarray:
        """Per-edge ``1/count`` of its (type, destination) pair, as (E, 1).

        Weighting every message by it and summing into the destination
        is the per-type mean aggregation of RGCN (and of ParaGraph
        without attention), summed over types.
        """
        dtype = np.dtype(dtype) if dtype is not None else precision.get_compute_dtype()

        def build():
            plan = self.type_dst_plan()
            return plan.inverse_counts(dtype)[plan.segment_ids]

        return self._cached(("type_dst_inv_counts", dtype), build)

    def node_type_plans(self) -> dict[str, SegmentPlan]:
        """Scatter plans for placing per-type rows into the node matrix."""
        return self._cached(
            "node_type_plans",
            lambda: {
                type_name: SegmentPlan.build(ids, self.num_nodes)
                for type_name, ids in self.nodes_of_type.items()
            },
        )

    # -- Cached layer normalisers (dtype-keyed) -------------------------
    def gcn_inv_sqrt_degree(self, dtype: "np.dtype | None" = None) -> np.ndarray:
        """``1/sqrt(max(deg, 1))`` column over self-loop-augmented degrees."""
        dtype = np.dtype(dtype) if dtype is not None else precision.get_compute_dtype()

        def build():
            degree = self.in_degrees(include_self_loops=True)
            return (1.0 / np.sqrt(np.maximum(degree, 1.0))).astype(dtype).reshape(-1, 1)

        return self._cached(("gcn_inv_sqrt", dtype), build)
