"""Dense layers: Linear and MLP.

These are the building blocks of every GNN layer and readout head in the
library (paper §III: "several fully connected layers, which take node
embedding as inputs").
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn import init as nn_init
from repro.nn import ops
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Linear(Module):
    """Affine transform ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensions.
    rng:
        Generator for weight initialisation (Xavier uniform).
    bias:
        Whether to include an additive bias.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(nn_init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(nn_init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": ops.relu,
    "leaky_relu": ops.leaky_relu,
    "identity": lambda x: x,
}


def get_activation(name: str) -> Callable[[Tensor], Tensor]:
    """Look up an activation by name.

    Raises
    ------
    KeyError
        For unknown names; the message lists valid options.
    """
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}"
        ) from None


class MLP(Module):
    """A stack of Linear layers with a shared hidden activation.

    The paper's readout uses FC layers all at the embedding width F with a
    final 1-dimensional output; ``MLP([F, F, F, 1])`` expresses that.
    The activation is applied between layers but not after the last one.
    """

    def __init__(
        self,
        dims: Sequence[int],
        rng: np.random.Generator,
        activation: str = "relu",
    ):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output dimension")
        self.dims = list(dims)
        self.activation_name = activation
        self.layers = [
            Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)
        ]

    def forward(self, x: Tensor) -> Tensor:
        act = get_activation(self.activation_name)
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = act(x)
        return x
