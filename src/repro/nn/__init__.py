"""Minimal autodiff neural-network engine used by all ParaGraph models.

Public surface::

    from repro import nn
    x = nn.Tensor([[1.0, 2.0]], requires_grad=True)
    layer = nn.Linear(2, 4, rng)
    loss = nn.mse_loss(layer(x), target)
    loss.backward()
"""

from repro.nn import precision
from repro.nn.layers import MLP, Linear, get_activation
from repro.nn.loss import mse_loss
from repro.nn.module import Module, Parameter
from repro.nn.ops import (
    block_matmul,
    concat,
    gather_rows,
    l2_normalize_rows,
    leaky_relu,
    relu,
    scatter_rows,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn.plan import SegmentPlan
from repro.nn.precision import compute_dtype, get_compute_dtype, set_compute_dtype
from repro.nn.optim import Adam, global_grad_norm
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "MLP",
    "Linear",
    "SegmentPlan",
    "compute_dtype",
    "get_compute_dtype",
    "precision",
    "set_compute_dtype",
    "get_activation",
    "mse_loss",
    "Module",
    "Parameter",
    "block_matmul",
    "concat",
    "gather_rows",
    "l2_normalize_rows",
    "leaky_relu",
    "relu",
    "scatter_rows",
    "segment_mean",
    "segment_softmax",
    "segment_sum",
    "Adam",
    "global_grad_norm",
    "Tensor",
    "as_tensor",
    "is_grad_enabled",
    "no_grad",
]
