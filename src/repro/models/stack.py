"""Same-shape ParaGraph trunks run as one inference pass over a model axis.

The paper trains one ParaGraph model per target, so serving every target
of a circuit runs 13 trunks of identical shape over the same graph.  Run
one at a time, each layer of each trunk pays the per-call cost of a
gather, a softmax and a segment sum on small arrays.  :class:`TrunkStack`
runs M such trunks together: node rows are ``(N, M, F)`` and edge rows
``(E, M, F)``, so per layer there is one source gather, one batched
matmul per edge type, one :func:`repro.nn.ops.segment_softmax` over all
M models' logit columns and one segment sum, whatever M is.

Every model's output equals its own taped forward bit for bit.  The
stack performs the same arithmetic on the same operands: the same BLAS
call per row block (``np.matmul`` over the model axis makes one gemm per
model, with the shapes :func:`~repro.nn.ops.block_matmul` uses), the
same per-node attention scores over the edge types present, and
reductions that run column by column, so a column's sum does not depend
on how many columns sit beside it.

Weight stacks are built at the compute dtype, whatever dtype the
parameters hold, once per weight generation: they stay current while
every source array is still its parameter's ``data`` and the compute
dtype is unchanged (every weight write in the library replaces
``param.data``).  Under a mixed policy (float64 weights in a float32
block) each model's output therefore equals the taped forward of that
model cast to the compute dtype.  Edge-sized
arrays are split along the model axis so that each stays within
``_CHUNK_BYTES``; the softmax still runs once per layer.

The stack is inference only (plain numpy, no tape); training runs the
taped layers.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ModelError
from repro.models.convs import ParaGraphConv
from repro.models.inputs import GraphInputs
from repro.models.multitask import SharedTrunk
from repro.nn import concat, get_compute_dtype, no_grad, ops

#: Bytes one edge-sized array (gathered sources or messages) may hold
#: for one chunk of models; a chunk always holds at least one model.
_CHUNK_BYTES = 768 << 10


def stack_key(trunk: SharedTrunk) -> tuple | None:
    """What trunks must share to run in one stack; ``None`` for a trunk
    that cannot (any conv but ParaGraph)."""
    convs = trunk.convs
    if not all(type(conv) is ParaGraphConv for conv in convs):
        return None
    first = convs[0]
    return (
        trunk.embed_dim,
        len(convs),
        tuple((name, t.in_features) for name, t in trunk.encoder.transforms.items()),
        tuple(first.edge_types),
        first.use_attention,
        first.group_edge_types,
        first.concat_skip,
        first.negative_slope,
        first.num_heads,
    )


def weight_bytes(trunks: Iterable[SharedTrunk]) -> int:
    """The bytes of the trunks' parameters: what stacking them copies."""
    return sum(param.data.nbytes for trunk in trunks for param in trunk.parameters())


class TrunkStack:
    """M same-shape ParaGraph trunks as one tape-free forward.

    ``stack(inputs)`` returns the ``(N, M, F)`` node embeddings;
    ``[:, m]`` is ``trunks[m](inputs)`` at the compute dtype, bit for bit
    (of ``trunks[m]`` cast to it, when its weights are at another).
    ``nbytes`` is the trunks' :func:`weight_bytes`.
    """

    def __init__(self, trunks: Sequence[SharedTrunk]):
        self.trunks = tuple(trunks)
        keys = {stack_key(trunk) for trunk in self.trunks}
        if not self.trunks or None in keys or len(keys) != 1:
            raise ModelError("a trunk stack needs same-shape ParaGraph trunks")
        self.nbytes = weight_bytes(self.trunks)
        self._tables: _Tables | None = None

    def tables(self) -> "_Tables":
        """The weight stacks for this weight generation and dtype."""
        dtype = get_compute_dtype()
        tables = self._tables
        if tables is None or not tables.current(dtype):
            tables = self._tables = _Tables(self.trunks, dtype)
        return tables

    def __call__(self, inputs: GraphInputs) -> np.ndarray:
        tables = self.tables()
        num_models, width = len(self.trunks), tables.layers[0].width
        edge_row = len(inputs.merged_dst) * width * tables.dtype.itemsize
        # the fewest chunks within the budget, as even as M allows
        chunks = -(-num_models // max(1, _CHUNK_BYTES // max(1, edge_row)))
        chunk = -(-num_models // chunks)
        h = tables.encode(inputs, chunk)
        # one message buffer for every layer and chunk of the call: a
        # fresh edge-sized array per layer costs its pages again
        messages = np.empty(len(inputs.merged_dst) * chunk * width, dtype=h.dtype)
        for layer in tables.layers:
            h = layer.forward(h, inputs, chunk, messages)
        return h


class _Tables:
    """Every trunk's weights, stacked on a model axis.

    Per node type ``(M, d, F)`` encoder weights; per layer the type
    weights ``(M, F, T*F)`` (all T types of the layer, type-major, heads
    side by side), the folded attention scores ``(M, F, 2*T*H)`` and the
    update weights.  Built from the taped layers' own weight code;
    ``params`` lists every parameter read.
    """

    def __init__(self, trunks: Sequence[SharedTrunk], dtype: np.dtype):
        self.dtype = dtype
        self.params: list = []
        encoders = [trunk.encoder.transforms for trunk in trunks]
        self.encoder = {}
        for name in encoders[0]:
            linears = [encoder[name] for encoder in encoders]
            self.params += [p for lin in linears for p in (lin.weight, lin.bias)]
            weights = np.stack([lin.weight.data for lin in linears], dtype=dtype)
            biases = np.stack([lin.bias.data for lin in linears], dtype=dtype)
            self.encoder[name] = (weights, biases[:, None, :])
        self.layers = [
            _Layer([trunk.convs[k] for trunk in trunks], self.params, dtype)
            for k in range(len(trunks[0].convs))
        ]
        self.sources = [param.data for param in self.params]

    def current(self, dtype: np.dtype) -> bool:
        """Whether the parameters' arrays and the compute dtype are still
        the ones these stacks were built from."""
        return dtype == self.dtype and all(
            map(operator.is_, self.sources, [param.data for param in self.params])
        )

    def encode(self, inputs: GraphInputs, chunk: int) -> np.ndarray:
        """The ``(N, M, F)`` initial embeddings (Algorithm 1, lines 1-2),
        *chunk* models at a time."""
        first = next(iter(self.encoder.values()))[0]
        num_models, width = first.shape[0], first.shape[2]
        h = np.zeros((inputs.num_nodes, num_models, width), dtype=self.dtype)
        for name in sorted(inputs.features):
            if name not in self.encoder:
                raise ModelError(f"encoder has no transform for node type {name!r}")
            weight, bias = self.encoder[name]
            x = np.asarray(inputs.features[name], dtype=self.dtype)
            rows = inputs.nodes_of_type[name]
            for models in _chunks(num_models, chunk):
                piece = np.empty(weight[models].shape[:1] + (len(x), width), self.dtype)
                np.matmul(x, weight[models], out=piece)
                piece += bias[models]
                h[rows, models] += piece.transpose(1, 0, 2)
        return h


class _Layer:
    """One ParaGraph layer of every trunk (paper Algorithm 1, lines 4-10)."""

    def __init__(self, convs: Sequence[ParaGraphConv], params: list, dtype: np.dtype):
        first = convs[0]
        self.use_attention = first.use_attention
        self.concat_skip = first.concat_skip
        self.negative_slope = first.negative_slope
        self.num_heads = first.num_heads
        self.group_key = first._group_key
        #: table position of every type (or of the shared weight)
        self.positions = {name: t for t, name in enumerate(first.edge_types)}
        weights, scores = [], []
        with no_grad():
            for conv in convs:
                pieces = conv._pieces(conv.type_weights, conv.edge_types)
                weight = concat(pieces, axis=1)
                weights.append(weight.data)
                # every type's pieces: the tables read each table in full
                params += conv.type_weights.values()
                if self.use_attention:
                    scores.append(conv._scores(weight, conv.edge_types).data)
                    params += [*conv.attn_dst.values(), *conv.attn_src.values()]
                params += [conv.agg_bias, conv.update.weight, conv.update.bias]
        self.width = first.update.out_features
        # the concatenated type weights and scores are at the compute dtype
        # already, as in the taped layers
        self.weights = np.stack(weights)
        self.scores = np.stack(scores) if scores else None
        self.agg_bias = np.stack([conv.agg_bias.data for conv in convs], dtype=dtype)
        self.update_weight = np.stack(
            [conv.update.weight.data for conv in convs], dtype=dtype
        )
        self.update_bias = np.stack(
            [conv.update.bias.data for conv in convs], dtype=dtype
        )

    def _positions(self, names: list[str]) -> list[int]:
        positions = []
        for name in names:
            position = self.positions.get(self.group_key(name))
            if position is None:
                raise ModelError(f"no weights for edge type {name!r}")
            positions.append(position)
        return positions

    def _alpha(
        self, h: np.ndarray, inputs: GraphInputs, positions: list[int], chunk: int
    ) -> np.ndarray:
        """``(E, M, H, 1)`` attention of every model: per-node scores of
        the present types, gathered at both ends, then one softmax over
        every model's logit columns."""
        num_nodes, num_models, _ = h.shape
        heads, num_types = self.num_heads, self.scores.shape[2] // (2 * self.num_heads)
        columns = np.asarray(
            [t * heads + k for t in positions for k in range(heads)], dtype=np.int64
        )
        scores = np.take(
            self.scores, np.concatenate([columns, num_types * heads + columns]), axis=2
        )
        rows = inputs.type_node_rows()
        num_edges = len(rows) // 2
        logits = np.empty((num_edges, num_models, heads), dtype=h.dtype)
        for models in _chunks(num_models, chunk):
            node_scores = np.matmul(h[:, models].transpose(1, 0, 2), scores[models])
            count = len(node_scores)
            ends = np.take(node_scores.reshape(count, -1, heads), rows, axis=1)
            ends = ends.reshape(count, 2, num_edges, heads).transpose(1, 2, 0, 3)
            np.add(ends[0], ends[1], out=logits[:, models])
        logits = np.where(logits > 0, logits, logits * self.negative_slope)
        pairs = inputs.type_dst_plan()
        alpha = ops.segment_softmax(
            logits.reshape(num_edges, -1), pairs.segment_ids, pairs.num_segments,
            plan=pairs,
        ).data
        return alpha.reshape(num_edges, num_models, heads, 1)

    def _aggregate(
        self,
        h: np.ndarray,
        inputs: GraphInputs,
        positions: list[int],
        models: slice,
        weights: np.ndarray,
        buffer: np.ndarray,
    ) -> np.ndarray:
        """The ``(N, c, F)`` neighbourhood of a chunk of c models: each
        type's messages transformed by its weight, weighted by *weights*
        (attention, or the per-type mean) and summed into their
        destinations.  The messages are written into *buffer*."""
        num_nodes, _, width = h.shape
        src_plan, dst_plan = inputs.merged_plans()
        h_src = ops.gather_rows(h[:, models], inputs.merged_src, plan=src_plan).data
        messages = buffer[: h_src.size].reshape(h_src.shape)
        _, bounds = inputs.edge_blocks()
        for position, start, stop in zip(positions, bounds[:-1], bounds[1:]):
            columns = slice(position * width, (position + 1) * width)
            np.matmul(
                h_src[start:stop].transpose(1, 0, 2),
                self.weights[models, :, columns],
                out=messages[start:stop].transpose(1, 0, 2),
            )
        num_edges = len(h_src)
        heads = self.num_heads
        by_head = messages.reshape(num_edges, -1, heads, width // heads)
        by_head *= weights[:, models]
        return ops.segment_sum(
            messages.reshape(num_edges, -1), inputs.merged_dst, num_nodes, plan=dst_plan
        ).data.reshape(num_nodes, -1, width)

    def forward(
        self, h: np.ndarray, inputs: GraphInputs, chunk: int, buffer: np.ndarray
    ) -> np.ndarray:
        """The next ``(N, M, F)`` embeddings, *chunk* models at a time,
        written over *h*: a chunk reads only its own models' rows once
        the attention logits of every model are taken."""
        names, _ = inputs.edge_blocks()
        if names:
            positions = self._positions(names)
            if self.use_attention:
                weights = self._alpha(h, inputs, positions, chunk)
            else:  # the per-type mean: one 1/count per edge, every model
                inv_counts = inputs.type_dst_inv_counts(h.dtype)[:, :, None, None]
                shape = (len(inv_counts), h.shape[1], 1, 1)
                weights = np.broadcast_to(inv_counts, shape)
        for models in _chunks(h.shape[1], chunk):
            if names:
                agg = self._aggregate(h, inputs, positions, models, weights, buffer)
            else:
                agg = h[:, models] * h.dtype.type(0.0)  # no edges: zero neighbourhood
            agg += self.agg_bias[models]
            combined = (
                np.concatenate([h[:, models], agg], axis=2) if self.concat_skip else agg
            )
            np.matmul(
                combined.transpose(1, 0, 2),
                self.update_weight[models],
                out=h[:, models].transpose(1, 0, 2),
            )
        h += self.update_bias
        return np.maximum(h, 0.0, out=h)


def _chunks(num_models: int, chunk: int) -> list[slice]:
    return [slice(lo, lo + chunk) for lo in range(0, num_models, chunk)]
