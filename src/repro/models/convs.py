"""Graph convolution layers: GCN, GraphSage, RGCN, GAT and ParaGraph.

Each layer implements one row of paper Table III (or Algorithm 1 for
ParaGraph) on the flat node-embedding matrix, using the segment operations
from :mod:`repro.nn.ops`.  All layers share the signature
``forward(h, inputs) -> h_next`` with ``h`` of shape ``(num_nodes, F)``.

Conventions:

* GCN and GAT add self-loops (their aggregation would otherwise zero out
  isolated nodes; this follows the reference implementations).
* GraphSage keeps its concat-skip and row L2-normalisation.
* RGCN has the self-weight ``W_0``; ParaGraph has the GraphSage-style
  concat skip, so neither needs self-loops.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.models.inputs import GraphInputs
from repro.nn import (
    Linear,
    Module,
    Parameter,
    Tensor,
    block_matmul,
    concat,
    gather_rows,
    l2_normalize_rows,
    leaky_relu,
    relu,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn import init as nn_init


class GCNConv(Module):
    """Kipf-Welling graph convolution with symmetric degree normalisation."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.linear = Linear(dim, dim, rng)

    def forward(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        src, dst = inputs.with_self_loops()
        src_plan, dst_plan = inputs.loop_plans()
        inv_sqrt = Tensor(inputs.gcn_inv_sqrt_degree(h.data.dtype))
        scaled = h * inv_sqrt  # 1/sqrt(d_j) on the source side
        messages = gather_rows(scaled, src, plan=src_plan)
        agg = segment_sum(messages, dst, inputs.num_nodes, plan=dst_plan) * inv_sqrt
        return relu(self.linear(agg))


class SageConv(Module):
    """GraphSage with mean aggregator, concat skip and L2 normalisation."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.linear = Linear(2 * dim, dim, rng)
        self.neigh_bias = Parameter(nn_init.zeros((dim,)))

    def forward(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        src_plan, dst_plan = inputs.merged_plans()
        messages = gather_rows(h, inputs.merged_src, plan=src_plan)
        h_neigh = segment_mean(
            messages, inputs.merged_dst, inputs.num_nodes, plan=dst_plan
        )
        combined = concat([h, h_neigh + self.neigh_bias], axis=1)
        out = relu(self.linear(combined))
        return l2_normalize_rows(out)


class RGCNConv(Module):
    """Relational GCN: one weight matrix per edge type plus a self weight.

    Each type's messages are averaged per destination and the averages
    summed over types.  Edges of a type the layer has no weight for are
    ignored.
    """

    def __init__(self, dim: int, edge_types: list[str], rng: np.random.Generator):
        super().__init__()
        self.edge_types = list(edge_types)
        self.relation_weights = {
            et: Parameter(nn_init.xavier_uniform((dim, dim), rng))
            for et in self.edge_types
        }
        self.self_weight = Parameter(nn_init.xavier_uniform((dim, dim), rng))

    def forward(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        self_term = h @ self.self_weight
        names, bounds = inputs.edge_blocks()
        if not names:
            return relu(self_term)
        ignored = Tensor(np.zeros_like(self.self_weight.data))
        weight = concat(
            [self.relation_weights.get(name, ignored) for name in names], axis=1
        )
        src_plan, dst_plan = inputs.merged_plans()
        messages = block_matmul(
            gather_rows(h, inputs.merged_src, plan=src_plan), weight, bounds
        ) * Tensor(inputs.type_dst_inv_counts(h.data.dtype))
        agg = segment_sum(
            messages, inputs.merged_dst, inputs.num_nodes, plan=dst_plan
        )
        return relu(agg + self_term)


class GATConv(Module):
    """Graph attention layer (single head, as the paper is memory-bound to)."""

    def __init__(self, dim: int, rng: np.random.Generator, negative_slope: float = 0.2):
        super().__init__()
        self.weight = Parameter(nn_init.xavier_uniform((dim, dim), rng))
        # attention vector a, split into destination and source halves
        self.attn_dst = Parameter(nn_init.xavier_uniform((dim, 1), rng))
        self.attn_src = Parameter(nn_init.xavier_uniform((dim, 1), rng))
        self.negative_slope = negative_slope

    def forward(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        src, dst = inputs.with_self_loops()
        src_plan, dst_plan = inputs.loop_plans()
        wh = h @ self.weight
        score_dst = wh @ self.attn_dst
        score_src = wh @ self.attn_src
        logits = leaky_relu(
            gather_rows(score_dst, dst, plan=dst_plan)
            + gather_rows(score_src, src, plan=src_plan),
            self.negative_slope,
        )
        alpha = segment_softmax(logits, dst, inputs.num_nodes, plan=dst_plan)
        messages = gather_rows(wh, src, plan=src_plan) * alpha
        return relu(segment_sum(messages, dst, inputs.num_nodes, plan=dst_plan))


class ParaGraphConv(Module):
    """One ParaGraph embedding layer (paper Algorithm 1, lines 4-10).

    Combines RGCN's per-edge-type grouping, GAT's per-group self-attention,
    and GraphSage's concat-skip update.  The ablation flags disable one
    ingredient at a time:

    * ``use_attention=False`` — replace attention with a mean aggregator,
    * ``group_edge_types=False`` — share one weight/attention across all
      edge types (homogeneous treatment),
    * ``concat_skip=False`` — drop the previous-layer concatenation.
    """

    def __init__(
        self,
        dim: int,
        edge_types: list[str],
        rng: np.random.Generator,
        use_attention: bool = True,
        group_edge_types: bool = True,
        concat_skip: bool = True,
        negative_slope: float = 0.2,
        num_heads: int = 1,
    ):
        super().__init__()
        if not edge_types:
            raise ModelError("ParaGraphConv needs at least one edge type")
        if num_heads < 1 or dim % num_heads != 0:
            raise ModelError(
                f"num_heads={num_heads} must divide the embedding dim {dim}"
            )
        self.use_attention = use_attention
        self.group_edge_types = group_edge_types
        self.concat_skip = concat_skip
        self.negative_slope = negative_slope
        self.num_heads = num_heads
        head_dim = dim // num_heads
        self.edge_types = list(edge_types) if group_edge_types else ["__shared__"]
        # One (dim x head_dim) weight and attention pair per edge type per
        # head; heads are concatenated back to `dim` after aggregation.
        self.type_weights = {
            f"{et}#{head}": Parameter(nn_init.xavier_uniform((dim, head_dim), rng))
            for et in self.edge_types
            for head in range(num_heads)
        }
        self.attn_dst = {
            f"{et}#{head}": Parameter(nn_init.xavier_uniform((head_dim, 1), rng))
            for et in self.edge_types
            for head in range(num_heads)
        }
        self.attn_src = {
            f"{et}#{head}": Parameter(nn_init.xavier_uniform((head_dim, 1), rng))
            for et in self.edge_types
            for head in range(num_heads)
        }
        in_dim = 2 * dim if concat_skip else dim
        self.update = Linear(in_dim, dim, rng)
        self.agg_bias = Parameter(nn_init.zeros((dim,)))

    def _group_key(self, edge_type: str) -> str:
        return edge_type if self.group_edge_types else "__shared__"

    def _pieces(self, table: dict, names: list[str]) -> list[Parameter]:
        """*table*'s parameter for every edge type in *names* and every
        head, type-major, head-minor."""
        return [
            table[f"{self._group_key(name)}#{head}"]
            for name in names
            for head in range(self.num_heads)
        ]

    def _scores(self, weight: Tensor, names: list[str]) -> Tensor:
        """Attention folded into the type weights: ``W_{t,k} @ a_{t,k}``.

        *weight* is the (F, T*F) stacked type weight.  Returns (F, 2*T*H):
        columns ``:T*H`` hold the destination vectors, columns ``T*H:``
        the source vectors, column ``t*H + k`` of each half type t and
        head k, so ``h @ scores`` gives every node's destination and
        source score for every type and head (GAT's decomposition of the
        logit ``a . [W h_dst | W h_src]``).
        """
        dim = weight.shape[0]
        attn = concat(
            self._pieces(self.attn_dst, names) + self._pieces(self.attn_src, names),
            axis=0,
        )
        products = weight.reshape(dim, 1, -1) * attn.reshape(1, 2, -1)
        return products.reshape(dim, -1, dim // self.num_heads).sum(axis=2)

    def _messages(
        self, h: Tensor, inputs: GraphInputs, names: list[str], bounds: np.ndarray
    ) -> tuple[Tensor, Tensor | None]:
        """Weighted per-edge messages over the merged edge list, and alpha.

        Every edge type's rows are transformed by that type's weight in
        one :func:`block_matmul`; attention (one softmax column per head)
        or the per-type mean runs over (type, destination) segments.  An
        edge's attention logit is its destination's score for the edge's
        type plus its source's, both read from one (N, 2*T*H) per-node
        score table in one gather.  Returns ``(messages, alpha)``; alpha
        is ``(E, H)``, or ``None`` without attention.
        """
        missing = [
            name for name in names
            if f"{self._group_key(name)}#0" not in self.type_weights
        ]
        if missing:
            raise ModelError(f"no weights for edge type {missing[0]!r}")
        src_plan, _ = inputs.merged_plans()
        weight = concat(self._pieces(self.type_weights, names), axis=1)
        scores = self._scores(weight, names) if self.use_attention else None
        messages = block_matmul(
            gather_rows(h, inputs.merged_src, plan=src_plan), weight, bounds
        )
        if scores is None:
            inv_counts = Tensor(inputs.type_dst_inv_counts(h.data.dtype))
            return messages * inv_counts, None
        num_edges, heads = len(inputs.merged_dst), self.num_heads
        node_scores = (h @ scores).reshape(-1, heads)
        logits = leaky_relu(
            gather_rows(
                node_scores, inputs.type_node_rows(), plan=inputs.type_node_plan()
            )
            .reshape(2, num_edges, heads)
            .sum(axis=0),
            self.negative_slope,
        )
        pairs = inputs.type_dst_plan()
        alpha = segment_softmax(
            logits, pairs.segment_ids, pairs.num_segments, plan=pairs
        )
        weighted = messages.reshape(num_edges, heads, -1) * alpha.reshape(
            num_edges, heads, 1
        )
        return weighted.reshape(num_edges, -1), alpha

    def attention_weights(
        self, h: Tensor, inputs: GraphInputs
    ) -> dict[str, np.ndarray]:
        """Per-edge attention coefficients (head 0), for interpretability.

        Returns ``{edge_type: alpha}`` with ``alpha[k]`` the weight the
        destination of edge k assigns to its source within that edge type
        (paper §III: attention weights aid model interpretability).
        """
        if not self.use_attention:
            raise ModelError("attention is disabled on this layer")
        names, bounds = inputs.edge_blocks()
        if not names:
            return {}
        _, alpha = self._messages(h, inputs, names, bounds)
        head0 = alpha.numpy()[:, 0]
        return {
            name: head0[lo:hi].copy()
            for name, lo, hi in zip(names, bounds[:-1], bounds[1:])
        }

    def forward(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        names, bounds = inputs.edge_blocks()
        if names:
            messages, _ = self._messages(h, inputs, names, bounds)
            _, dst_plan = inputs.merged_plans()
            agg = segment_sum(
                messages, inputs.merged_dst, inputs.num_nodes, plan=dst_plan
            )
        else:
            agg = h * Tensor(0.0)  # no edges at all: zero neighbourhood
        if self.concat_skip:
            combined = concat([h, agg + self.agg_bias], axis=1)
        else:
            combined = agg + self.agg_bias
        return relu(self.update(combined))


def make_conv(
    name: str,
    dim: int,
    edge_types: list[str],
    rng: np.random.Generator,
    **kwargs,
) -> Module:
    """Construct a convolution layer by model name.

    Raises
    ------
    ModelError
        For unknown names; the message lists the registry.
    """
    registry = {
        "gcn": lambda: GCNConv(dim, rng),
        "sage": lambda: SageConv(dim, rng),
        "rgcn": lambda: RGCNConv(dim, edge_types, rng),
        "gat": lambda: GATConv(dim, rng),
        "paragraph": lambda: ParaGraphConv(dim, edge_types, rng, **kwargs),
    }
    try:
        return registry[name]()
    except KeyError:
        raise ModelError(
            f"unknown conv {name!r}; choose from {sorted(registry)}"
        ) from None


#: Names accepted by :func:`make_conv`, in paper Figure 6 order.
GNN_MODEL_NAMES = ("gcn", "sage", "rgcn", "gat", "paragraph")
