"""Weight initialisation schemes.

Draws are always made in float64 (so a given seed yields the same weights
under every precision policy) and then cast to the active compute dtype.
"""

from __future__ import annotations

import numpy as np

from repro.nn import precision


def xavier_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a 2-D weight matrix."""
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    draw = rng.uniform(-limit, limit, size=shape)
    return draw.astype(precision.get_compute_dtype(), copy=False)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros(shape, dtype=precision.get_compute_dtype())


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[0] * receptive, shape[1] * receptive
