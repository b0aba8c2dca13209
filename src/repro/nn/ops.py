"""Functional operations on :class:`~repro.nn.tensor.Tensor`.

Beyond standard activations, this module provides the three structural
operations every message-passing layer in the library is built from:

* :func:`gather_rows` — ``h[src]`` for edge-wise source features,
* :func:`segment_sum` — scatter-add of edge messages into destination nodes,
* :func:`segment_softmax` — softmax over the incoming edges of each node
  (the attention normaliser of GAT and ParaGraph),

plus :func:`block_matmul`, the per-edge-type transform of the relational
layers (one weight per contiguous block of a type-major edge list).

Every scatter (the forward of the segment ops and the backward of
:func:`gather_rows`) runs through a :class:`~repro.nn.plan.SegmentPlan`, a
sorted-CSR reduction schedule whose scatter-add is bit-identical to the
unbuffered ``np.add.at``.  Callers that own graph-shaped index arrays (the
convolution layers) pass cached plans from
:class:`repro.models.inputs.GraphInputs`; ad-hoc calls build a plan on the
fly.  Row gathers are :func:`np.take`, and :func:`segment_softmax` is one
autodiff node with a closed-form backward.  ``tests/nn/kernel_oracle.py``
keeps the composite ``np.add.at`` forms these kernels are checked against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.plan import SegmentPlan
from repro.nn.tensor import Tensor, as_tensor


def _scatter_add(
    index: np.ndarray,
    values: np.ndarray,
    num_rows: int,
    plan: SegmentPlan | None = None,
) -> np.ndarray:
    """Sum rows of *values* into *num_rows* buckets selected by *index*."""
    if plan is None:
        plan = SegmentPlan.build(index, num_rows)
    else:
        plan.check(index, num_rows)
    return plan.scatter_add(values)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    x = as_tensor(x)
    data = x.data

    def backward(grad: np.ndarray):
        # the mask exists only when a gradient is requested
        return (grad * (data > 0),)

    return Tensor._make(np.maximum(data, 0.0), (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU with the GAT-default slope of 0.2."""
    x = as_tensor(x)
    data = x.data

    def backward(grad: np.ndarray):
        scale = np.where(data > 0, 1.0, negative_slope)
        return (grad * scale.astype(data.dtype, copy=False),)

    out_data = np.where(data > 0, data, data * negative_slope)
    return Tensor._make(out_data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along *axis* (GraphSage-style skip connection)."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat() requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0, *sizes])

    def backward(grad: np.ndarray):
        slicer = [slice(None)] * grad.ndim
        pieces = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return Tensor._make(out_data, tuple(tensors), backward)


def block_matmul(x: Tensor, weight: Tensor, bounds: np.ndarray) -> Tensor:
    """Row-blocked matmul: each row block gets its own weight.

    ``bounds`` holds ``T + 1`` ascending row offsets (``bounds[0] == 0``,
    ``bounds[-1] == len(x)``) and *weight* is ``(K, T * M)``: column block
    ``t`` multiplies row block ``t``, so

    ``out[bounds[t]:bounds[t + 1]] = x[bounds[t]:bounds[t + 1]] @ weight[:, t*M:(t+1)*M]``.

    This is the per-edge-type transform of a relational layer over a
    type-major edge list, in one tape node however many types there are.
    Empty blocks are allowed.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    bounds = np.asarray(bounds, dtype=np.int64)
    num_blocks = len(bounds) - 1
    if x.ndim != 2 or weight.ndim != 2 or weight.shape[0] != x.shape[1]:
        raise ShapeError(
            f"block_matmul needs x (E, K) and weight (K, T*M), got "
            f"{x.shape} and {weight.shape}"
        )
    if (
        num_blocks < 1
        or weight.shape[1] % num_blocks
        or bounds[0] != 0
        or bounds[-1] != x.shape[0]
        or np.any(np.diff(bounds) < 0)
    ):
        raise ShapeError(
            f"block bounds {bounds.tolist()} do not tile {x.shape[0]} rows "
            f"into column blocks of a {weight.shape[1]}-wide weight"
        )
    width = weight.shape[1] // num_blocks
    x_data, w_data = x.data, weight.data
    blocks = [
        (int(lo), int(hi), slice(t * width, (t + 1) * width))
        for t, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    # np.dot, not matmul: on the thin blocks of a typed edge list (a
    # one-column logit weight, say) matmul leaves BLAS and is ~3x slower.
    out_data = np.empty(
        (x.shape[0], width), dtype=np.result_type(x_data, w_data)
    )
    for lo, hi, cols in blocks:
        np.dot(x_data[lo:hi], w_data[:, cols], out=out_data[lo:hi])

    def backward(grad: np.ndarray):
        grad = np.ascontiguousarray(grad)
        grad_x = np.empty(x_data.shape, dtype=np.result_type(grad, w_data))
        grad_w = np.empty_like(w_data)
        for lo, hi, cols in blocks:
            np.dot(grad[lo:hi], w_data[:, cols].T, out=grad_x[lo:hi])
            grad_w[:, cols] = np.dot(x_data[lo:hi].T, grad[lo:hi])
        return grad_x, grad_w

    return Tensor._make(out_data, (x, weight), backward)


def gather_rows(
    x: Tensor, index: np.ndarray, plan: SegmentPlan | None = None
) -> Tensor:
    """Select rows of a 2-D (or 1-D) tensor: ``out[k] = x[index[k]]``.

    *plan* (optional) is a :class:`SegmentPlan` over ``(index,
    x.shape[0])`` used to turn the scatter-add backward into a sorted
    reduction; graph layers pass the cached plans of their
    :class:`~repro.models.inputs.GraphInputs`.
    """
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    out_data = np.take(x.data, index, axis=0)
    num_rows = x.data.shape[0]

    def backward(grad: np.ndarray):
        return (_scatter_add(index, grad, num_rows, plan),)

    return Tensor._make(out_data, (x,), backward)


def segment_sum(
    x: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """Sum rows of *x* into ``num_segments`` buckets.

    ``out[s] = sum_{k : segment_ids[k] == s} x[k]``.  Rows of *x* are edge
    messages; *segment_ids* are destination-node ids.  *plan* may carry the
    precomputed reduction schedule for ``(segment_ids, num_segments)``.
    """
    x = as_tensor(x)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if len(segment_ids) != x.data.shape[0]:
        raise ShapeError(
            f"segment_ids length {len(segment_ids)} does not match "
            f"leading dimension {x.data.shape[0]}"
        )
    out_data = _scatter_add(segment_ids, x.data, num_segments, plan)

    def backward(grad: np.ndarray):
        return (np.take(grad, segment_ids, axis=0),)

    return Tensor._make(out_data, (x,), backward)


def segment_mean(
    x: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """Mean of rows per segment; empty segments yield zero rows."""
    x = as_tensor(x)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    dtype = x.data.dtype
    if plan is not None:
        inv_counts = plan.inverse_counts(dtype).ravel()
    else:
        counts = np.bincount(segment_ids, minlength=num_segments).astype(dtype)
        inv_counts = 1.0 / np.maximum(counts, 1.0)
    summed = segment_sum(x, segment_ids, num_segments, plan)
    shape = (num_segments, *([1] * (summed.ndim - 1)))
    return summed * Tensor(inv_counts.reshape(shape))


def segment_softmax(
    scores: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """Softmax of *scores* within each segment.

    Used for attention: scores are per-edge logits and segments group the
    incoming edges of each destination node.  Numerically stabilised by
    subtracting the (detached) per-segment maximum, which does not change
    either the value or the gradient of softmax.  The denominator guard is
    ``finfo(dtype).tiny`` — a fixed ``1e-300`` would flush to zero under a
    float32 compute policy.

    One autodiff node: the forward reuses one scratch buffer for the
    shift, exp and divide, and the backward is the closed-form softmax
    gradient ``alpha * (grad - segsum(alpha * grad))``.
    """
    scores = as_tensor(scores)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if plan is None:
        plan = SegmentPlan.build(segment_ids, num_segments)
    else:
        plan.check(segment_ids, num_segments)
    data = scores.data
    scratch = np.take(plan.segment_max(data), segment_ids, axis=0)
    np.subtract(data, scratch, out=scratch)
    np.exp(scratch, out=scratch)
    denom = plan.scatter_add(scratch)
    np.maximum(denom, np.finfo(data.dtype).tiny, out=denom)
    alpha = np.take(denom, segment_ids, axis=0)
    np.divide(scratch, alpha, out=alpha)

    def backward(grad: np.ndarray):
        out = np.take(plan.scatter_add(alpha * grad), segment_ids, axis=0)
        np.subtract(grad, out, out=out)
        np.multiply(alpha, out, out=out)
        return (out,)

    return Tensor._make(alpha, (scores,), backward)


def scatter_rows(
    pieces: Sequence[Tensor],
    indices: Sequence[np.ndarray],
    num_rows: int,
    plans: Sequence[SegmentPlan | None] | None = None,
) -> Tensor:
    """Assemble a ``(num_rows, F)`` matrix from row blocks at given indices.

    ``out[indices[k][i]] = pieces[k][i]``.  Used to place per-node-type
    embeddings into the global node matrix (Algorithm 1, lines 1-2).  Index
    sets must be disjoint; overlapping rows are summed (and gradients flow
    to every contributor), which is never triggered by the graph builder.
    *plans* may carry one :class:`SegmentPlan` per piece (or ``None``
    entries) for the scatter schedule.
    """
    pieces = [as_tensor(p) for p in pieces]
    if not pieces:
        raise ShapeError("scatter_rows() requires at least one piece")
    if plans is None:
        plans = [None] * len(pieces)
    width = pieces[0].data.shape[1]
    dtype = pieces[0].data.dtype
    index_arrays = [np.asarray(ix, dtype=np.int64) for ix in indices]
    for piece, index in zip(pieces, index_arrays):
        if piece.data.shape[0] != len(index):
            raise ShapeError("scatter_rows piece/index length mismatch")
    out_data = np.zeros((num_rows, width), dtype=dtype)
    for piece, index, plan in zip(pieces, index_arrays, plans):
        if plan is not None:
            plan.check(index, num_rows)
        if plan is not None and plan.counts.max(initial=0) <= 1:
            # unique indices: buffered fancy-index add is safe and
            # avoids the (num_rows, F) temporary of the general path
            out_data[index] += piece.data
        else:
            out_data += _scatter_add(index, piece.data, num_rows, plan)

    def backward(grad: np.ndarray):
        return tuple(np.take(grad, index, axis=0) for index in index_arrays)

    return Tensor._make(out_data, tuple(pieces), backward)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalise each row to unit L2 norm (GraphSage's final projection)."""
    x = as_tensor(x)
    norms = (x * x).sum(axis=1, keepdims=True).clip_min(eps).sqrt()
    return x / norms
