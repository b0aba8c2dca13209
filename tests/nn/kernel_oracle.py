"""Composite numpy forms of the ``repro.nn.ops`` kernels: the parity oracle.

:mod:`repro.nn.ops` runs one implementation of each kernel: sorted-CSR
scatters through :class:`~repro.nn.plan.SegmentPlan`, ``np.take`` gathers,
a scratch-buffer segment softmax and mask-free activations.  The functions
here compute the same kernels the direct way on plain arrays: unbuffered
``np.add.at`` / ``np.maximum.at`` scatters, fancy-index gathers and
mask-multiply activations.  Each returns ``(out, vjp)`` where ``vjp`` maps
the output gradient to the input gradient(s).

The CSR scatter accumulates in the element order of ``np.add.at``, so at
float64 every kernel equals its oracle bitwise, forward and backward.
:func:`segment_softmax_composite` differentiates the historical
shift/exp/sum/divide chain by the quotient rule instead of the closed
form, and agrees with :func:`segment_softmax` to roundoff only.
"""

from __future__ import annotations

import numpy as np


def scatter_add(index, values, num_rows):
    """``out[s] = sum of values rows with index == s`` (unbuffered)."""
    out = np.zeros((num_rows, *values.shape[1:]), dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def segment_max(values, segment_ids, num_segments):
    """Per-segment maximum; empty (non-finite) segments become 0."""
    out = np.full(
        (num_segments, *values.shape[1:]), -np.inf, dtype=values.dtype
    )
    np.maximum.at(out, segment_ids, values)
    out[~np.isfinite(out)] = 0.0
    return out


def gather_rows(data, index):
    out = data[index]
    return out, lambda grad: scatter_add(index, grad, data.shape[0])


def segment_sum(values, segment_ids, num_segments):
    out = scatter_add(segment_ids, values, num_segments)
    return out, lambda grad: grad[segment_ids]


def segment_mean(values, segment_ids, num_segments):
    counts = np.bincount(segment_ids, minlength=num_segments)
    inv = 1.0 / np.maximum(counts.astype(values.dtype), 1.0)
    inv = inv.reshape(num_segments, *([1] * (values.ndim - 1)))
    out = scatter_add(segment_ids, values, num_segments) * inv
    return out, lambda grad: (grad * inv)[segment_ids]


def _softmax_parts(scores, segment_ids, num_segments):
    shifted = scores - segment_max(scores, segment_ids, num_segments)[segment_ids]
    exp_scores = np.exp(shifted)
    raw = scatter_add(segment_ids, exp_scores, num_segments)
    denom = np.maximum(raw, np.finfo(scores.dtype).tiny)
    return exp_scores, raw, denom


def segment_softmax(scores, segment_ids, num_segments):
    """Closed-form backward ``alpha * (grad - segsum(alpha * grad))``."""
    exp_scores, _, denom = _softmax_parts(scores, segment_ids, num_segments)
    alpha = exp_scores / denom[segment_ids]

    def vjp(grad):
        weighted = scatter_add(segment_ids, alpha * grad, num_segments)
        return alpha * (grad - weighted[segment_ids])

    return alpha, vjp


def segment_softmax_composite(scores, segment_ids, num_segments):
    """The shift/exp/sum/clip/divide chain, differentiated link by link."""
    exp_scores, raw, denom = _softmax_parts(scores, segment_ids, num_segments)
    gathered = denom[segment_ids]
    alpha = exp_scores / gathered

    def vjp(grad):
        grad_gathered = -grad * exp_scores / gathered**2
        grad_denom = scatter_add(segment_ids, grad_gathered, num_segments)
        grad_denom = grad_denom * (raw >= np.finfo(scores.dtype).tiny)
        return (grad / gathered + grad_denom[segment_ids]) * exp_scores

    return alpha, vjp


def scatter_rows(pieces, indices, num_rows):
    out = np.zeros((num_rows, pieces[0].shape[1]), dtype=pieces[0].dtype)
    for piece, index in zip(pieces, indices):
        np.add.at(out, index, piece)
    return out, lambda grad: [grad[index] for index in indices]


def relu(data):
    mask = (data > 0).astype(data.dtype)
    return data * mask, lambda grad: grad * mask


def leaky_relu(data, negative_slope=0.2):
    scale = np.where(data > 0, 1.0, negative_slope).astype(data.dtype, copy=False)
    return data * scale, lambda grad: grad * scale


def l2_normalize_rows(data, eps=1e-12):
    """``x / sqrt(max(sum(x * x), eps))`` and the chain rule of that chain."""
    squares = np.sum(data * data, axis=1, keepdims=True)
    norms = np.sqrt(np.maximum(squares, eps))
    out = data / norms

    def vjp(grad):
        grad_norms = np.sum(-grad * data / norms**2, axis=1, keepdims=True)
        grad_squares = grad_norms * 0.5 / norms * (squares >= eps)
        return grad / norms + grad_squares * data + grad_squares * data

    return out, vjp
