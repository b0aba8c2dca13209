"""Functional operations on :class:`~repro.nn.tensor.Tensor`.

Beyond standard activations, this module provides the three structural
operations every message-passing layer in the library is built from:

* :func:`gather_rows` — ``h[src]`` for edge-wise source features,
* :func:`segment_sum` — scatter-add of edge messages into destination nodes,
* :func:`segment_softmax` — softmax over the incoming edges of each node
  (the attention normaliser of GAT and ParaGraph),

plus :func:`block_matmul`, the per-edge-type transform of the relational
layers (one weight per contiguous block of a type-major edge list).

The scatter-style kernels (forward of the segment ops *and* the
scatter-add backward of :func:`gather_rows`) run through
:class:`~repro.nn.plan.SegmentPlan` — a sorted-CSR reduction schedule
whose scatter-add is bit-identical to the historical unbuffered
``np.add.at`` but an order of magnitude faster.  :func:`segment_softmax`
additionally fuses its shift/exp/sum/div chain into a single autodiff
node when plans are enabled (same math, matching the composite form to
roundoff).  Callers that own graph-shaped index arrays (the convolution
layers) pass cached plans from :class:`repro.models.inputs.GraphInputs`;
ad-hoc calls build a plan on the fly.  :func:`use_legacy_kernels`
switches back to the unbuffered composite kernels for benchmarking and
parity testing.

*Which implementation* answers each kernel is the thread-local policy of
:mod:`repro.nn.backend`: every op captures the active
:class:`~repro.nn.backend.KernelBackend` at forward time and runs both
its forward and its backward through it, so GCN/GraphSAGE/RGCN/GAT and
ParaGraph layers all swap kernels together when a caller scopes
``backend.use_backend(...)``.  The ``default`` backend reproduces the
historical code paths bit-for-bit.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.backend import get_backend
from repro.nn.plan import SegmentPlan
from repro.nn.tensor import Tensor, as_tensor

# ----------------------------------------------------------------------
# Kernel-mode switch (plan-based vs legacy np.add.at)
# ----------------------------------------------------------------------
_kernel_state = threading.local()


def plans_enabled() -> bool:
    """True when the scatter kernels use sorted-CSR plans (this thread)."""
    return getattr(_kernel_state, "plans", True)


@contextlib.contextmanager
def use_legacy_kernels() -> Iterator[None]:
    """Run the scatter kernels through unbuffered ``np.add.at``.

    Exists for before/after benchmarking (``bench_train_step``) and for
    parity tests asserting the plan-based kernels are bit-compatible.
    Thread-local, like :func:`repro.nn.no_grad`.
    """
    previous = plans_enabled()
    _kernel_state.plans = False
    try:
        yield
    finally:
        _kernel_state.plans = previous


def _scatter_add(
    index: np.ndarray,
    values: np.ndarray,
    num_rows: int,
    plan: SegmentPlan | None = None,
    backend=None,
) -> np.ndarray:
    """Sum rows of *values* into *num_rows* buckets selected by *index*."""
    if not plans_enabled():
        out = np.zeros((num_rows, *values.shape[1:]), dtype=values.dtype)
        # staticcheck: ignore[autodiff-bypass] -- the legacy (plans
        # disabled) scatter kernel; forward-only, wrapped by the op tape
        np.add.at(out, index, values)
        return out
    if plan is None:
        plan = SegmentPlan.build(index, num_rows)
    else:
        plan.check(index, num_rows)
    return (backend or get_backend()).scatter_add(values, plan)


def _activation(x: Tensor, kernel) -> Tensor:
    """Wrap a backend activation kernel (out, vjp) into one tape node."""
    x = as_tensor(x)
    out_data, vjp = kernel(x.data)

    def backward(grad: np.ndarray):
        return (vjp(grad),)

    return Tensor._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return _activation(x, get_backend().relu)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU with the GAT-default slope of 0.2."""
    backend = get_backend()
    return _activation(x, lambda data: backend.leaky_relu(data, negative_slope))


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return _activation(x, get_backend().sigmoid)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return _activation(x, get_backend().tanh)


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
    backend = get_backend()
    out_data = backend.gather_rows(x.data, index)
    num_rows = x.data.shape[0]

    def backward(grad: np.ndarray):
        return (_scatter_add(index, grad, num_rows, plan, backend),)

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
    backend = get_backend()
    out_data = _scatter_add(segment_ids, x.data, num_segments, plan, backend)

    def backward(grad: np.ndarray):
        return (backend.gather_rows(grad, segment_ids),)

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


def _segment_max_data(
    data: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> np.ndarray:
    if plans_enabled():
        if plan is None:
            plan = SegmentPlan.build(segment_ids, num_segments)
        return get_backend().segment_max(data, plan)
    out = np.full((num_segments, *data.shape[1:]), -np.inf, dtype=data.dtype)
    # staticcheck: ignore[autodiff-bypass] -- legacy segment-max kernel
    np.maximum.at(out, segment_ids, data)
    out[~np.isfinite(out)] = 0.0  # empty segments
    return out


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

    With plans enabled this is a *fused* kernel: one autodiff node whose
    backward is the closed-form softmax gradient
    ``alpha * (grad - segsum(alpha * grad))``, instead of the historical
    chain of shift/exp/sum/clip/div nodes.  Values and gradients match the
    composite form to roundoff (same math, reassociated).
    """
    scores = as_tensor(scores)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if plan is not None:
        plan.check(segment_ids, num_segments)
    if plans_enabled():
        if plan is None:
            plan = SegmentPlan.build(segment_ids, num_segments)
        fused_plan = plan
        backend = get_backend()
        alpha = backend.segment_softmax(scores.data, segment_ids, fused_plan)

        def backward(grad: np.ndarray):
            return (
                backend.segment_softmax_backward(
                    alpha, grad, segment_ids, fused_plan
                ),
            )

        return Tensor._make(alpha, (scores,), backward)
    # Legacy composite path (the pre-plan-engine computation order).
    max_per_segment = _segment_max_data(
        scores.data, segment_ids, num_segments, plan
    )
    shifted = scores - Tensor(max_per_segment[segment_ids])
    exp_scores = shifted.exp()
    denom = segment_sum(exp_scores, segment_ids, num_segments, plan)
    denom = denom.clip_min(float(np.finfo(scores.data.dtype).tiny))
    return exp_scores / gather_rows(denom, segment_ids, plan)


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
    backend = get_backend()
    if plans_enabled():
        out_data = np.zeros((num_rows, width), dtype=dtype)
        for piece, index, plan in zip(pieces, index_arrays, plans):
            if plan is not None:
                plan.check(index, num_rows)
            if plan is not None and plan.counts.max(initial=0) <= 1:
                # unique indices: buffered fancy-index add is safe and
                # avoids the (num_rows, F) temporary of the general path
                out_data[index] += piece.data
            else:
                out_data += _scatter_add(
                    index, piece.data, num_rows, plan, backend
                )
    else:
        out_data = np.zeros((num_rows, width), dtype=dtype)
        for piece, index in zip(pieces, index_arrays):
            # staticcheck: ignore[autodiff-bypass] -- legacy scatter path
            np.add.at(out_data, index, piece.data)

    def backward(grad: np.ndarray):
        return tuple(backend.gather_rows(grad, index) for index in index_arrays)

    return Tensor._make(out_data, tuple(pieces), backward)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalise each row to unit L2 norm (GraphSage's final projection).

    Backends may fuse this into a single tape node (forward matches the
    composite chain bitwise; the closed-form backward agrees to roundoff).
    The default backend keeps the historical composite Tensor-op chain.
    """
    x = as_tensor(x)
    fused = get_backend().l2_normalize_rows(x.data, eps)
    if fused is not None:
        out_data, vjp = fused

        def backward(grad: np.ndarray):
            return (vjp(grad),)

        return Tensor._make(out_data, (x,), backward)
    norms = (x * x).sum(axis=1, keepdims=True).clip_min(eps).sqrt()
    return x / norms


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout.  The paper trains without dropout; provided for ablations."""
    if not training or rate <= 0.0:
        return as_tensor(x)
    x = as_tensor(x)
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return x * Tensor(mask)
