"""Per-edge-type loop forms of the relational layers: the parity oracle.

:class:`~repro.models.convs.ParaGraphConv` and
:class:`~repro.models.convs.RGCNConv` run each layer as a fixed number of
kernel calls over the whole type-major edge list.  The functions here
compute the same layers the direct way, one edge type (and one head) at a
time with its own softmax and segment sum, reading the parameters of a
live layer.  Only the order of floating-point sums differs, so batched
and looped results agree to roundoff.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn import (
    Tensor,
    concat,
    gather_rows,
    leaky_relu,
    relu,
    segment_mean,
    segment_softmax,
    segment_sum,
)


def _paragraph_head(conv, h, inputs, key, edge_type):
    src, dst = inputs.edges[edge_type]
    src_plan, dst_plan = inputs.edge_plans(edge_type)
    wh_src = gather_rows(h, src, plan=src_plan) @ conv.type_weights[key]
    if not conv.use_attention:
        return segment_mean(wh_src, dst, inputs.num_nodes, plan=dst_plan), None
    wh_dst = gather_rows(h, dst, plan=dst_plan) @ conv.type_weights[key]
    logits = leaky_relu(
        wh_dst @ conv.attn_dst[key] + wh_src @ conv.attn_src[key],
        conv.negative_slope,
    )
    alpha = segment_softmax(logits, dst, inputs.num_nodes, plan=dst_plan)
    out = segment_sum(wh_src * alpha, dst, inputs.num_nodes, plan=dst_plan)
    return out, alpha


def _present_types(inputs):
    return [t for t in sorted(inputs.edges) if len(inputs.edges[t][0])]


def paragraph_forward(conv, h: Tensor, inputs) -> Tensor:
    """ParaGraph layer (Algorithm 1, lines 4-10), one edge type at a time."""
    agg = None
    for edge_type in _present_types(inputs):
        group = conv._group_key(edge_type)
        if f"{group}#0" not in conv.type_weights:
            raise ModelError(f"no weights for edge type {edge_type!r}")
        heads = [
            _paragraph_head(conv, h, inputs, f"{group}#{head}", edge_type)[0]
            for head in range(conv.num_heads)
        ]
        out = heads[0] if len(heads) == 1 else concat(heads, axis=1)
        agg = out if agg is None else agg + out
    if agg is None:
        agg = h * Tensor(0.0)
    if conv.concat_skip:
        combined = concat([h, agg + conv.agg_bias], axis=1)
    else:
        combined = agg + conv.agg_bias
    return relu(conv.update(combined))


def paragraph_attention(conv, h: Tensor, inputs) -> dict[str, np.ndarray]:
    """Head-0 attention per edge type, one softmax per type."""
    return {
        edge_type: _paragraph_head(
            conv, h, inputs, f"{conv._group_key(edge_type)}#0", edge_type
        )[1].numpy().ravel().copy()
        for edge_type in _present_types(inputs)
    }


def rgcn_forward(conv, h: Tensor, inputs) -> Tensor:
    """RGCN layer: per-type mean of transformed neighbours, plus self term."""
    agg = None
    for edge_type in conv.edge_types:
        if edge_type not in inputs.edges or not len(inputs.edges[edge_type][0]):
            continue
        src, dst = inputs.edges[edge_type]
        src_plan, dst_plan = inputs.edge_plans(edge_type)
        messages = gather_rows(h, src, plan=src_plan) @ conv.relation_weights[edge_type]
        out = segment_mean(messages, dst, inputs.num_nodes, plan=dst_plan)
        agg = out if agg is None else agg + out
    self_term = h @ conv.self_weight
    return relu(self_term if agg is None else agg + self_term)
