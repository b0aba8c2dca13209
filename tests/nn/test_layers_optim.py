"""Tests for Linear/MLP layers, Adam, the MSE loss and module traversal."""

import numpy as np
import pytest

from repro import nn
from repro.errors import ShapeError
from repro.nn import Adam, MLP, Linear, Module, Parameter, Tensor

from tests.nn.gradcheck import assert_gradients_match


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestLinear:
    def test_shapes(self):
        layer = Linear(3, 5, _rng())
        out = layer(Tensor(np.ones((2, 3))))
        assert out.shape == (2, 5)

    def test_no_bias(self):
        layer = Linear(3, 5, _rng(), bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 3))))
        np.testing.assert_allclose(out.numpy(), 0.0)

    def test_gradcheck(self):
        layer = Linear(3, 2, _rng())
        x = Tensor(_rng(1).standard_normal((4, 3)))
        assert_gradients_match(
            lambda: (layer(x) ** 2).sum(), [layer.weight, layer.bias]
        )

    def test_parameters_found(self):
        layer = Linear(3, 2, _rng())
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}


class TestMLP:
    def test_dims_validation(self):
        with pytest.raises(ValueError):
            MLP([4], _rng())

    def test_forward_shape(self):
        mlp = MLP([4, 8, 8, 1], _rng())
        out = mlp(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 1)

    def test_no_activation_after_last_layer(self):
        """A [1,1] MLP with relu is affine, so negative outputs survive."""
        mlp = MLP([1, 1], _rng(), activation="relu")
        mlp.layers[0].weight.data[:] = 1.0
        mlp.layers[0].bias.data[:] = -5.0
        out = mlp(Tensor([[1.0]]))
        assert out.item() == -4.0

    def test_unknown_activation_raises(self):
        mlp = MLP([2, 2], _rng(), activation="nope")
        with pytest.raises(KeyError):
            mlp(Tensor(np.ones((1, 2))))

    def test_gradcheck_through_depth(self):
        mlp = MLP([3, 4, 1], _rng(), activation="leaky_relu")
        x = Tensor(_rng(1).standard_normal((5, 3)))
        assert_gradients_match(lambda: (mlp(x) ** 2).sum(), mlp.parameters())


class TestLosses:
    def test_mse_value(self):
        loss = nn.mse_loss(Tensor([1.0, 3.0]), Tensor([0.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 5.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            nn.mse_loss(Tensor([1.0]), Tensor([[1.0]]))

    def test_mse_gradcheck(self):
        pred = Tensor(_rng().standard_normal((4, 1)), requires_grad=True)
        target = Tensor(_rng(1).standard_normal((4, 1)))
        assert_gradients_match(lambda: nn.mse_loss(pred, target), [pred])


class TestOptimizers:
    def _quadratic_descent(self, make_optimizer, steps, tol):
        """Minimise ||x - c||^2; the optimiser must converge."""
        target = np.array([1.0, -2.0, 3.0])
        x = Parameter(np.zeros(3))
        opt = make_optimizer([x])
        for _ in range(steps):
            opt.zero_grad()
            loss = ((x - Tensor(target)) ** 2).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(x.data, target, atol=tol)

    def test_adam_converges(self):
        self._quadratic_descent(lambda p: Adam(p, lr=0.1), steps=400, tol=1e-4)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_weight_decay_shrinks_weights(self):
        x = Parameter(np.array([10.0]))
        opt = Adam([x], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (x * 0.0).sum().backward()
        opt.step()
        assert abs(x.data[0]) < 10.0

    def test_step_skips_params_without_grad(self):
        x = Parameter(np.array([1.0]))
        opt = Adam([x], lr=0.1)
        opt.step()  # no backward happened; must not crash
        np.testing.assert_allclose(x.data, [1.0])


class _Nested(Module):
    def __init__(self):
        super().__init__()
        self.linear = Linear(2, 2, _rng())
        self.blocks = [Linear(2, 2, _rng(i)) for i in range(2)]
        self.by_name = {"a": Linear(2, 2, _rng(5))}
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.linear(x)


class TestModule:
    def test_nested_parameter_discovery(self):
        module = _Nested()
        names = {name for name, _ in module.named_parameters()}
        assert "linear.weight" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names
        assert "by_name.a.weight" in names
        assert "scale" in names
        # 4 Linear layers x 2 params + scale
        assert len(names) == 9

    def test_num_parameters(self):
        module = Linear(3, 4, _rng())
        assert module.num_parameters() == 3 * 4 + 4

    def test_state_dict_roundtrip(self):
        module = _Nested()
        state = module.state_dict()
        fresh = _Nested()
        fresh.load_state_dict(state)
        for (_, a), (_, b) in zip(module.named_parameters(), fresh.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_load_state_dict_missing_key_raises(self):
        module = Linear(2, 2, _rng())
        with pytest.raises(KeyError):
            module.load_state_dict({})

    def test_load_state_dict_shape_mismatch_raises(self):
        module = Linear(2, 2, _rng())
        bad = module.state_dict()
        bad["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            module.load_state_dict(bad)

    def test_zero_grad_clears_all(self):
        module = Linear(2, 2, _rng())
        out = module(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert module.weight.grad is not None
        module.zero_grad()
        assert module.weight.grad is None
