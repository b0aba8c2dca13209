"""A small reverse-mode automatic-differentiation engine on numpy.

This module provides the :class:`Tensor` class used by every model in the
library.  It supports the operations needed for graph neural networks —
broadcast arithmetic, matmul, concatenation, row gather and segment
reductions — with gradients verified against finite differences in the test
suite.

The engine intentionally mirrors a very small subset of PyTorch semantics:

* ``Tensor(data, requires_grad=True)`` creates a leaf parameter,
* operations build a computation graph,
* ``loss.backward()`` populates ``.grad`` on every leaf that requires it.

Arrays are kept in the compute dtype of :mod:`repro.nn.precision` —
``float64`` by default, which makes gradient checks tight; training may
opt into ``float32`` for memory-bandwidth savings.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import ShapeError
from repro.nn import precision

ArrayLike = "np.ndarray | float | int | list | tuple | Tensor"

# The grad-enabled flag is thread-local: a no_grad() block on one thread
# (e.g. prediction inside a callback) must not disable graph construction
# for training loops running concurrently on other threads.
class _GradState(threading.local):
    enabled = True  # until this thread enters no_grad()


_grad_state = _GradState()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph construction (inference mode).

    The flag is per-thread, so concurrent training/inference threads do not
    race on it.
    """
    previous = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def is_grad_enabled() -> bool:
    """Return True when operations record the autodiff graph (this thread)."""
    return _grad_state.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce *grad* back to *shape* after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    array = np.asarray(value, dtype=precision.get_compute_dtype())
    return array


_new_tensor = object.__new__  # a Tensor without running __init__


class Tensor:
    """A numpy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of the active compute
        dtype (:func:`repro.nn.precision.get_compute_dtype`).
    requires_grad:
        When True, ``backward()`` accumulates into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if not _grad_state.enabled:
            # Tape-free: no parents tuple, and the compute dtype is read
            # once; *data* is kept as is when it already has that dtype
            # (np.asarray would return it unchanged).
            out = _new_tensor(Tensor)
            dtype = precision.get_compute_dtype()
            out.data = (
                data if type(data) is np.ndarray and data.dtype is dtype
                else np.asarray(data, dtype=dtype)
            )
            out.requires_grad = False
            out.grad = None
            out._backward = None
            out._parents = ()
            return out
        parents = tuple(parents)
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1.0 and must match this tensor's shape
        otherwise.
        """
        if grad is None:
            if self.size != 1:
                raise ShapeError(
                    "backward() without an explicit gradient requires a scalar"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        order = _topological_order(self)
        pending: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = pending.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                node._accumulate(node_grad)
            if node._backward is not None:
                node._push(node_grad, pending)

    def _push(self, grad: np.ndarray, pending: dict[int, np.ndarray]) -> None:
        # _backward fills grads into a capture list via closure over parents.
        contributions = self._backward(grad)  # type: ignore[misc]
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + contribution
            else:
                pending[key] = contribution

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(grad, other.data.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(-grad, other.data.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * other_data, self_data.shape),
                _unbroadcast(grad * self_data, other_data.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / other_data, self_data.shape),
                _unbroadcast(-grad * self_data / other_data**2, other_data.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data**exponent
        self_data = self.data

        def backward(grad: np.ndarray):
            return (grad * exponent * self_data ** (exponent - 1),)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray):
            return (grad @ other_data.T, self_data.T @ grad)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions and reshaping
    # ------------------------------------------------------------------
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad: np.ndarray):
            if axis is None:
                return (np.broadcast_to(grad, shape).copy(),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        original = self.data.shape

        def backward(grad: np.ndarray):
            return (grad.reshape(original),)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities used across models
    # ------------------------------------------------------------------
    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray):
            return (grad * 0.5 / out_data,)

        return Tensor._make(out_data, (self,), backward)

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise ``max(self, minimum)`` (used for safe norms)."""
        mask = (self.data >= minimum).astype(self.data.dtype)
        out_data = np.maximum(self.data, minimum)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._make(out_data, (self,), backward)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return nodes reachable from *root* in reverse-topological order."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    order.reverse()
    return order


def as_tensor(value) -> Tensor:
    """Coerce *value* to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
