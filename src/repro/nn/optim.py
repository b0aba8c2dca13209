"""The optimiser: Adam.

The paper trains every model with ADAM at learning rate 0.01.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Parameter


def global_grad_norm(params: Sequence[Parameter]) -> float:
    """Global L2 norm of all parameter gradients (``None`` grads skipped)."""
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += float((param.grad**2).sum())
    return total**0.5


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    # ------------------------------------------------------------------
    # State serialization (checkpoint/resume support)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy the optimiser's state as named arrays: ``step_count``
        (float64) and the moments ``m.<i>``/``v.<i>`` in parameter order,
        which is the deterministic registration order of
        :class:`~repro.nn.module.Module`."""
        state = {"step_count": np.asarray(self._step_count, dtype=np.float64)}  # staticcheck: ignore[precision-policy] -- optimizer state is float64-canonical on disk
        for slot, arrays in (("m", self._m), ("v", self._v)):
            for i, array in enumerate(arrays):
                state[f"{slot}.{i}"] = np.array(array, copy=True)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict` (exact round-trip)."""
        if "step_count" not in state:
            raise KeyError("missing optimizer state 'step_count'")
        for slot, arrays in (("m", self._m), ("v", self._v)):
            for i, array in enumerate(arrays):
                key = f"{slot}.{i}"
                if key not in state:
                    raise KeyError(f"missing optimizer state {key!r}")
                incoming = np.asarray(state[key], dtype=array.dtype)
                if incoming.shape != array.shape:
                    raise ValueError(
                        f"shape mismatch for optimizer state {key!r}: "
                        f"expected {array.shape}, got {incoming.shape}"
                    )
                array[...] = incoming
        self._step_count = int(np.asarray(state["step_count"]).item())
