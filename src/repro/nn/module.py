"""Module base class: parameter registration and traversal.

A :class:`Module` discovers parameters and submodules from its attributes,
mirroring the familiar PyTorch contract at a much smaller scale.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import precision
from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A leaf tensor registered as trainable state of a module."""

    def __init__(self, data):
        super().__init__(
            np.array(data, dtype=precision.get_compute_dtype()),
            requires_grad=True,
        )


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter`, :class:`Module`, or lists of
    modules as attributes; :meth:`parameters` and :meth:`named_parameters`
    find them recursively in deterministic (attribute insertion) order.
    """

    # Subclasses implement forward(); __call__ delegates to it.
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{key}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{key}", item

    def parameters(self) -> list[Parameter]:
        """Return all parameters as a flat list."""
        return [param for _, param in self.named_parameters()]

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(param.size for param in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy all parameter arrays keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`.

        Raises
        ------
        KeyError
            If a parameter name is missing from *state*.
        ValueError
            If shapes do not match.
        """
        for name, param in self.named_parameters():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            array = np.asarray(state[name], dtype=precision.get_compute_dtype())
            if array.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.data.shape}, got {array.shape}"
                )
            param.data = array.copy()
