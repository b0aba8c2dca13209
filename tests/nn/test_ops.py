"""Unit tests for functional ops: values and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.errors import ShapeError
from repro.nn import Tensor

from tests.nn.gradcheck import assert_gradients_match


def _rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestActivations:
    def test_relu_value(self):
        out = nn.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.numpy(), [0.0, 0.0, 2.0])

    def test_leaky_relu_value(self):
        out = nn.leaky_relu(Tensor([-1.0, 2.0]), negative_slope=0.2)
        np.testing.assert_allclose(out.numpy(), [-0.2, 2.0])

    def test_activation_gradients(self):
        x = Tensor(_rand((3, 3)) + 0.1, requires_grad=True)  # avoid kinks at 0
        assert_gradients_match(lambda: (nn.relu(x) ** 2).sum(), [x])
        assert_gradients_match(lambda: (nn.leaky_relu(x) ** 2).sum(), [x])


class TestConcat:
    def test_value_axis1(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        out = nn.concat([a, b], axis=1)
        assert out.shape == (2, 5)

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            nn.concat([])

    def test_gradient(self):
        a = Tensor(_rand((2, 2)), requires_grad=True)
        b = Tensor(_rand((2, 3), seed=1), requires_grad=True)
        assert_gradients_match(lambda: (nn.concat([a, b]) ** 2).sum(), [a, b])


class TestBlockMatmul:
    #: rows 0-2, 3-2 (empty), 3-7, 8-8 (empty)
    BOUNDS = np.array([0, 3, 3, 8, 8])

    def test_value_is_per_block_matmul(self):
        x, w = _rand((8, 3)), _rand((3, 4 * 2), seed=1)
        out = nn.block_matmul(Tensor(x), Tensor(w), self.BOUNDS).numpy()
        assert out.shape == (8, 2)
        np.testing.assert_array_equal(out[0:3], x[0:3] @ w[:, 0:2])
        np.testing.assert_array_equal(out[3:8], x[3:8] @ w[:, 4:6])

    def test_gradient(self):
        x = Tensor(_rand((8, 3)), requires_grad=True)
        w = Tensor(_rand((3, 4 * 2), seed=1), requires_grad=True)
        assert_gradients_match(
            lambda: (nn.block_matmul(x, w, self.BOUNDS) ** 2).sum(), [x, w]
        )

    def test_empty_blocks_get_zero_weight_gradient(self):
        x = Tensor(_rand((8, 3)))
        w = Tensor(_rand((3, 4 * 2), seed=1), requires_grad=True)
        nn.block_matmul(x, w, self.BOUNDS).sum().backward()
        np.testing.assert_array_equal(w.grad[:, 2:4], 0.0)
        np.testing.assert_array_equal(w.grad[:, 6:8], 0.0)

    @pytest.mark.parametrize(
        "x_shape,w_shape,bounds",
        [
            ((8, 3), (4, 8), [0, 3, 8]),  # inner dimensions disagree
            ((8, 3), (3, 7), [0, 3, 8]),  # columns do not split into blocks
            ((8, 3), (3, 8), [0, 3, 7]),  # bounds stop short of the rows
            ((8, 3), (3, 9), [0, 5, 3, 8]),  # bounds not ascending
            ((8, 3), (3, 8), [0]),  # no blocks
        ],
    )
    def test_shape_errors(self, x_shape, w_shape, bounds):
        with pytest.raises(ShapeError):
            nn.block_matmul(
                Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), bounds
            )


class TestGatherRows:
    def test_value(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = nn.gather_rows(x, np.array([2, 0, 2]))
        np.testing.assert_allclose(out.numpy(), [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])

    def test_gradient_with_repeats(self):
        x = Tensor(_rand((4, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 3, 0])
        assert_gradients_match(lambda: (nn.gather_rows(x, idx) ** 2).sum(), [x])


class TestSegmentOps:
    def test_segment_sum_value(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        out = nn.segment_sum(x, np.array([0, 1, 0, 2]), 3)
        np.testing.assert_allclose(out.numpy(), [[4.0, 6.0], [2.0, 3.0], [6.0, 7.0]])

    def test_segment_sum_empty_segment_is_zero(self):
        x = Tensor(np.ones((2, 2)))
        out = nn.segment_sum(x, np.array([0, 2]), 4)
        np.testing.assert_allclose(out.numpy()[1], [0.0, 0.0])
        np.testing.assert_allclose(out.numpy()[3], [0.0, 0.0])

    def test_segment_sum_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            nn.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 1]), 2)

    def test_segment_sum_gradient(self):
        x = Tensor(_rand((5, 2)), requires_grad=True)
        seg = np.array([0, 1, 1, 2, 0])
        assert_gradients_match(lambda: (nn.segment_sum(x, seg, 3) ** 2).sum(), [x])

    def test_segment_mean_value(self):
        x = Tensor(np.array([[2.0], [4.0], [10.0]]))
        out = nn.segment_mean(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.numpy(), [[3.0], [10.0]])

    def test_segment_mean_gradient(self):
        x = Tensor(_rand((5, 2)), requires_grad=True)
        seg = np.array([0, 0, 1, 2, 2])
        assert_gradients_match(lambda: (nn.segment_mean(x, seg, 3) ** 2).sum(), [x])

    def test_segment_softmax_sums_to_one_per_segment(self):
        scores = Tensor(_rand((6, 1)))
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = nn.segment_softmax(scores, seg, 3).numpy().ravel()
        np.testing.assert_allclose(out[:2].sum(), 1.0)
        np.testing.assert_allclose(out[2:5].sum(), 1.0)
        np.testing.assert_allclose(out[5:].sum(), 1.0)

    def test_segment_softmax_matches_dense_softmax(self):
        scores = np.array([[1.0], [2.0], [3.0]])
        out = nn.segment_softmax(Tensor(scores), np.zeros(3, dtype=int), 1)
        expected = np.exp(scores) / np.exp(scores).sum()
        np.testing.assert_allclose(out.numpy(), expected)

    def test_segment_softmax_single_edge_is_one(self):
        out = nn.segment_softmax(Tensor([[42.0]]), np.array([0]), 1)
        np.testing.assert_allclose(out.numpy(), [[1.0]])

    def test_segment_softmax_gradient(self):
        scores = Tensor(_rand((6, 1)), requires_grad=True)
        seg = np.array([0, 0, 1, 1, 1, 2])
        weights = Tensor(_rand((6, 1), seed=3))
        assert_gradients_match(
            lambda: (nn.segment_softmax(scores, seg, 3) * weights).sum(), [scores]
        )

    def test_segment_softmax_extreme_scores_stable(self):
        scores = Tensor([[1000.0], [999.0], [-1000.0]])
        out = nn.segment_softmax(scores, np.zeros(3, dtype=int), 1).numpy()
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0)


class TestL2Normalize:
    def test_l2_normalize_rows_unit_norm(self):
        x = Tensor(_rand((4, 3)) * 10)
        out = nn.l2_normalize_rows(x).numpy()
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(4))

    def test_l2_normalize_zero_row_stays_finite(self):
        x = Tensor(np.zeros((1, 3)))
        out = nn.l2_normalize_rows(x).numpy()
        assert np.all(np.isfinite(out))

    def test_l2_normalize_gradient(self):
        x = Tensor(_rand((3, 4)) + 2.0, requires_grad=True)
        assert_gradients_match(lambda: (nn.l2_normalize_rows(x) ** 2).sum(), [x])


@settings(max_examples=25, deadline=None)
@given(
    n_edges=st.integers(1, 30),
    n_nodes=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_property_segment_softmax_partitions_unity(n_edges, n_nodes, seed):
    """For any random segmentation, softmax weights sum to 1 per non-empty segment."""
    rng = np.random.default_rng(seed)
    seg = rng.integers(0, n_nodes, size=n_edges)
    scores = Tensor(rng.standard_normal((n_edges, 1)) * 5)
    out = nn.segment_softmax(scores, seg, n_nodes).numpy().ravel()
    sums = np.bincount(seg, weights=out, minlength=n_nodes)
    present = np.bincount(seg, minlength=n_nodes) > 0
    np.testing.assert_allclose(sums[present], 1.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    n_rows=st.integers(1, 20),
    n_segments=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_property_segment_sum_conserves_mass(n_rows, n_segments, seed):
    """Total of segment sums equals total of inputs (scatter conserves mass)."""
    rng = np.random.default_rng(seed)
    seg = rng.integers(0, n_segments, size=n_rows)
    x = Tensor(rng.standard_normal((n_rows, 3)))
    out = nn.segment_sum(x, seg, n_segments)
    np.testing.assert_allclose(out.numpy().sum(), x.numpy().sum(), atol=1e-9)
