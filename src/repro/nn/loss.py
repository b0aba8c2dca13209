"""The regression loss: the paper regresses every target with MSE."""

from __future__ import annotations

from repro.errors import ShapeError
from repro.nn.tensor import Tensor, as_tensor


def _check(pred: Tensor, target: Tensor) -> tuple[Tensor, Tensor]:
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(
            f"prediction shape {pred.shape} does not match target {target.shape}"
        )
    return pred, target


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    pred, target = _check(pred, target)
    diff = pred - target
    return (diff * diff).mean()
