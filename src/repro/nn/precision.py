"""Compute-precision policy for the NumPy NN engine.

Every tensor the engine creates is cast to one *compute dtype*.  The
default is ``float64`` — bit-for-bit compatible with the historical
behaviour, and what gradient checks and checkpoint round-trips assume.
Training can opt into ``float32`` (via :class:`repro.models.TrainConfig`'s
``dtype`` knob or :func:`compute_dtype`) for roughly 2x memory-bandwidth
savings on the segment kernels, at the cost of ~1e-3-relative loss drift
(see ``docs/performance.md`` for the measured tolerances).

The policy is thread-local, mirroring :func:`repro.nn.no_grad`: a float32
training run on one thread must not downcast tensors built concurrently by
an inference thread.

Checkpoints and saved models are always *stored* in float64 (a lossless
upcast from float32), so artifacts are portable across policies.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

import numpy as np

#: Dtypes the engine supports as compute precision.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

DEFAULT_DTYPE = np.dtype(np.float64)


class _State(threading.local):
    dtype = DEFAULT_DTYPE  # until this thread sets its own


_state = _State()


def resolve_dtype(dtype: "str | np.dtype | type") -> np.dtype:
    """Normalise a dtype spec (``'float32'``, ``np.float64``, ...).

    Raises
    ------
    ValueError
        For dtypes the engine does not support as compute precision.
    """
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        names = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise ValueError(
            f"unsupported compute dtype {resolved.name!r}; choose from {names}"
        )
    return resolved


def get_compute_dtype() -> np.dtype:
    """The dtype new tensors are cast to (this thread)."""
    return _state.dtype


def set_compute_dtype(dtype: "str | np.dtype | type") -> np.dtype:
    """Set the compute dtype for this thread; returns the resolved dtype."""
    resolved = resolve_dtype(dtype)
    _state.dtype = resolved
    return resolved


@contextlib.contextmanager
def compute_dtype(dtype: "str | np.dtype | type") -> Iterator[np.dtype]:
    """Context manager scoping the compute dtype (restores on exit)."""
    previous = get_compute_dtype()
    resolved = set_compute_dtype(dtype)
    try:
        yield resolved
    finally:
        _state.dtype = previous
