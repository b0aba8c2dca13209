"""Adam's state round-trips (the basis of checkpoint resume) and the
global gradient norm the trainer logs."""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, Tensor, compute_dtype, global_grad_norm


class TestOptimizerStateDict:
    """Exact state round-trips: the basis of bit-for-bit checkpoint resume."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda p: Adam(p, lr=0.01),
            lambda p: Adam(p, lr=0.01, weight_decay=1e-4),
        ],
        ids=["adam", "adam_weight_decay"],
    )
    def test_resumed_trajectory_matches(self, factory):
        target = Tensor(np.array([1.0, -2.0, 0.5]))

        def run(steps, opt=None, x=None):
            if x is None:
                x = Parameter(np.zeros(3))
                opt = factory([x])
            for _ in range(steps):
                opt.zero_grad()
                ((x - target) ** 2).sum().backward()
                opt.step()
            return x, opt

        x_full, _ = run(10)

        x_half, opt_half = run(5)
        state = opt_half.state_dict()
        x_resumed = Parameter(x_half.data.copy())
        opt_resumed = factory([x_resumed])
        opt_resumed.load_state_dict(state)
        x_resumed, _ = run(5, opt=opt_resumed, x=x_resumed)

        np.testing.assert_array_equal(x_full.data, x_resumed.data)

    def test_adam_state_keys(self):
        with compute_dtype("float32"):
            x = Parameter(np.zeros(2))
        opt = Adam([x], lr=0.01)
        opt.zero_grad()
        (x**2).sum().backward()
        opt.step()
        state = opt.state_dict()
        assert set(state) == {"step_count", "m.0", "v.0"}
        assert int(state["step_count"]) == 1
        # the step count is float64 on disk; the moments keep the
        # parameter's dtype
        assert state["step_count"].dtype == np.float64
        assert state["m.0"].dtype == state["v.0"].dtype == np.float32

    def test_load_state_dict_checks_keys_and_shapes(self):
        opt = Adam([Parameter(np.zeros(2))])
        state = opt.state_dict()
        for key in state:
            partial = {k: v for k, v in state.items() if k != key}
            with pytest.raises(KeyError, match=key):
                opt.load_state_dict(partial)
        with pytest.raises(ValueError, match="shape mismatch"):
            opt.load_state_dict({**state, "v.0": np.zeros(3)})

    def test_global_grad_norm(self):
        a = Parameter(np.array([3.0]))
        b = Parameter(np.array([4.0]))
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        assert global_grad_norm([a, b]) == pytest.approx(5.0)
        assert global_grad_norm([Parameter(np.zeros(1))]) == 0.0
