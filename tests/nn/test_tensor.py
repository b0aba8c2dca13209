"""Unit tests for the autodiff Tensor: values, gradients, graph mechanics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn import Tensor, as_tensor, no_grad

from tests.nn.gradcheck import assert_gradients_match


def _rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestBasics:
    def test_leaf_properties(self):
        t = Tensor([[1.0, 2.0]], requires_grad=True)
        assert t.shape == (1, 2)
        assert t.ndim == 2
        assert t.size == 2
        assert t.grad is None

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_item_and_len(self):
        assert Tensor([[5.0]]).item() == 5.0
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2.0).backward()

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2.0
        assert not b.requires_grad

    def test_no_grad_records_no_parents(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        with no_grad():
            b = (a * 2.0).sum()
        assert b._parents == () and b._backward is None and b.grad is None

    def test_no_grad_keeps_the_compute_dtype_contract(self):
        """Tape-free ops cast like the taped ones: to the compute dtype,
        and without a copy when the array already has it."""
        from repro.nn import compute_dtype

        wide = Tensor(np.ones((2, 2)))  # float64 under the default policy
        with compute_dtype("float32"):
            narrow = Tensor(np.ones((2, 2)))
            with no_grad():
                mixed = narrow @ wide  # numpy promotes to float64
                same = narrow * narrow
            taped = narrow @ wide
        assert mixed.data.dtype == taped.data.dtype == np.float32
        assert same.data.dtype == np.float32
        with no_grad():
            data = np.ones(3)
            out = Tensor._make(data, (), None)
        assert out.data is data

    def test_no_grad_is_thread_local(self):
        """Regression: the disable flag was a module global, so one thread's
        no_grad() silently killed gradients being built on another thread."""
        import threading

        entered = threading.Event()
        release = threading.Event()
        results = {}

        def hold_no_grad():
            with no_grad():
                entered.set()
                release.wait(timeout=5.0)

        def build_graph():
            a = Tensor([1.0], requires_grad=True)
            results["requires_grad"] = (a * 2.0).requires_grad

        holder = threading.Thread(target=hold_no_grad)
        holder.start()
        assert entered.wait(timeout=5.0)
        worker = threading.Thread(target=build_graph)
        worker.start()
        worker.join(timeout=5.0)
        release.set()
        holder.join(timeout=5.0)
        assert results["requires_grad"] is True

    def test_no_grad_restores_on_exception(self):
        from repro.nn.tensor import is_grad_enabled

        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()


class TestArithmeticValues:
    def test_add_sub_mul_div(self):
        a, b = Tensor([4.0]), Tensor([2.0])
        assert (a + b).item() == 6.0
        assert (a - b).item() == 2.0
        assert (a * b).item() == 8.0
        assert (a / b).item() == 2.0

    def test_scalar_coercion_both_sides(self):
        a = Tensor([3.0])
        assert (1.0 + a).item() == 4.0
        assert (1.0 - a).item() == -2.0
        assert (2.0 * a).item() == 6.0
        assert (6.0 / a).item() == 2.0

    def test_matmul_value(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_allclose((a @ b).numpy(), [[17.0], [39.0]])

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((3, 2)))
        b = Tensor([1.0, 2.0])
        out = x + b
        np.testing.assert_allclose(out.numpy(), [[2.0, 3.0]] * 3)


class TestGradients:
    def test_add_broadcast_grad(self):
        x = Tensor(_rand((3, 2)), requires_grad=True)
        b = Tensor(_rand(2), requires_grad=True)
        assert_gradients_match(lambda: ((x + b) ** 2).sum(), [x, b])

    def test_mul_grad(self):
        a = Tensor(_rand((2, 3)), requires_grad=True)
        b = Tensor(_rand((2, 3), seed=1), requires_grad=True)
        assert_gradients_match(lambda: (a * b).sum(), [a, b])

    def test_div_grad(self):
        a = Tensor(_rand((2, 3)), requires_grad=True)
        b = Tensor(np.abs(_rand((2, 3), seed=1)) + 1.0, requires_grad=True)
        assert_gradients_match(lambda: (a / b).sum(), [a, b])

    def test_matmul_grad(self):
        a = Tensor(_rand((3, 4)), requires_grad=True)
        b = Tensor(_rand((4, 2), seed=1), requires_grad=True)
        assert_gradients_match(lambda: (a @ b).sum(), [a, b])

    def test_pow_grad(self):
        a = Tensor(np.abs(_rand((3,))) + 0.5, requires_grad=True)
        assert_gradients_match(lambda: (a**3).sum(), [a])

    def test_sqrt_grad(self):
        a = Tensor(np.abs(_rand((4,))) + 0.5, requires_grad=True)
        assert_gradients_match(lambda: a.sqrt().sum(), [a])

    def test_sum_axis_grads(self):
        a = Tensor(_rand((3, 4)), requires_grad=True)
        assert_gradients_match(lambda: (a.sum(axis=0) ** 2).sum(), [a])
        assert_gradients_match(lambda: (a.sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_mean_grad(self):
        a = Tensor(_rand((3, 4)), requires_grad=True)
        assert_gradients_match(lambda: (a.mean(axis=1) ** 2).sum(), [a])

    def test_reshape_grad(self):
        a = Tensor(_rand((2, 6)), requires_grad=True)
        assert_gradients_match(lambda: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_clip_min_grad_away_from_kink(self):
        a = Tensor(np.array([2.0, -3.0, 0.5]), requires_grad=True)
        assert_gradients_match(lambda: (a.clip_min(1.0) ** 2).sum(), [a])

    def test_grad_accumulates_over_shared_subexpression(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3.0
        loss = (b * b).sum()  # d/da (9 a^2) = 18 a = 36
        loss.backward()
        np.testing.assert_allclose(a.grad, [36.0])

    def test_diamond_graph_gradient(self):
        a = Tensor([1.5], requires_grad=True)
        left = a * 2.0
        right = a * 3.0
        loss = (left * right).sum()  # 6 a^2 -> grad 12 a = 18
        loss.backward()
        np.testing.assert_allclose(a.grad, [18.0])

    def test_backward_twice_accumulates(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_property_linear_chain_gradient(rows, cols, seed):
    """Gradient of sum(x * c) is exactly c for random shapes."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((rows, cols))
    x = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    (x * Tensor(c)).sum().backward()
    np.testing.assert_allclose(x.grad, c)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_quadratic_gradient(seed):
    """Gradient of 0.5*||x||^2 is x itself."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(6), requires_grad=True)
    ((x * x).sum() * 0.5).backward()
    np.testing.assert_allclose(x.grad, x.numpy(), atol=1e-12)
