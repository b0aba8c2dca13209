"""SegmentPlan engine: parity with the ``np.add.at`` kernel oracle.

The plan-based scatter-add must be *bit-identical* to the unbuffered
scatter in float64 (the CSR kernel accumulates in the same element order);
against the composite softmax chain the closed-form ``segment_softmax``
backward is checked to roundoff instead.
"""

import numpy as np
import pytest

from repro import nn
from repro.errors import ShapeError
from repro.nn import SegmentPlan, Tensor

from tests.nn import kernel_oracle as oracle
from tests.nn.gradcheck import assert_gradients_match


def _segments(seed=0, num_items=200, num_segments=37):
    """Segment ids with duplicates, gaps (empty segments) and skew."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, num_segments, size=num_items)
    ids[ids == 5] = 4  # guarantee at least one empty segment
    return ids, num_segments


class TestSegmentPlanBuild:
    def test_counts_order_and_present(self):
        ids, S = _segments()
        plan = SegmentPlan.build(ids, S)
        np.testing.assert_array_equal(plan.counts, np.bincount(ids, minlength=S))
        assert plan.num_items == len(ids)
        # stable sort: equal ids keep their original relative order
        sorted_ids = ids[plan.order]
        assert np.all(np.diff(sorted_ids) >= 0)
        np.testing.assert_array_equal(np.unique(ids), plan.present)

    def test_rejects_bad_shapes_and_ranges(self):
        with pytest.raises(ShapeError):
            SegmentPlan.build(np.zeros((2, 2), dtype=np.int64), 4)
        with pytest.raises(ShapeError):
            SegmentPlan.build(np.array([0, 5]), 5)
        with pytest.raises(ShapeError):
            SegmentPlan.build(np.array([-1, 0]), 5)

    def test_check_mismatch(self):
        ids, S = _segments()
        plan = SegmentPlan.build(ids, S)
        with pytest.raises(ShapeError):
            plan.check(ids, S + 1)
        with pytest.raises(ShapeError):
            plan.check(ids[:-1], S)

    def test_empty_plan(self):
        plan = SegmentPlan.build(np.empty(0, dtype=np.int64), 7)
        out = plan.scatter_add(np.empty((0, 3)))
        np.testing.assert_array_equal(out, np.zeros((7, 3)))

    @pytest.mark.parametrize("num_items", [0, 1, 200])
    def test_compact_matches_build_on_renumbered_ids(self, num_items):
        ids, S = _segments(seed=2, num_items=num_items)
        plan = SegmentPlan.build(ids, S)
        _, dense = np.unique(ids, return_inverse=True)
        compact = plan.compact()
        rebuilt = SegmentPlan.build(dense.astype(np.int64), len(plan.present))
        assert compact.num_segments == rebuilt.num_segments
        for field in ("segment_ids", "order", "starts", "present", "counts"):
            np.testing.assert_array_equal(
                getattr(compact, field), getattr(rebuilt, field), err_msg=field
            )


class TestScatterAddBitwise:
    @pytest.mark.parametrize("feature_dim", [None, 1, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_vs_add_at(self, feature_dim, seed):
        ids, S = _segments(seed=seed)
        rng = np.random.default_rng(seed + 100)
        shape = (len(ids),) if feature_dim is None else (len(ids), feature_dim)
        values = rng.standard_normal(shape)
        plan = SegmentPlan.build(ids, S)
        expected = np.zeros((S, *shape[1:]))
        np.add.at(expected, ids, values)
        np.testing.assert_array_equal(plan.scatter_add(values), expected)

    def test_bitwise_float32(self):
        ids, S = _segments(seed=3)
        values = np.random.default_rng(3).standard_normal(
            (len(ids), 8)
        ).astype(np.float32)
        plan = SegmentPlan.build(ids, S)
        expected = np.zeros((S, 8), dtype=np.float32)
        np.add.at(expected, ids, values)
        assert plan.scatter_add(values).dtype == np.float32
        np.testing.assert_array_equal(plan.scatter_add(values), expected)

    def test_segment_max_matches_maximum_at(self):
        ids, S = _segments(seed=4)
        values = np.random.default_rng(4).standard_normal((len(ids), 3))
        plan = SegmentPlan.build(ids, S)
        expected = np.full((S, 3), -np.inf)
        np.maximum.at(expected, ids, values)
        expected[~np.isfinite(expected)] = 0.0
        np.testing.assert_array_equal(plan.segment_max(values), expected)

    def test_inverse_counts(self):
        ids, S = _segments(seed=5)
        plan = SegmentPlan.build(ids, S)
        counts = np.bincount(ids, minlength=S)
        expected = (1.0 / np.maximum(counts, 1)).reshape(-1, 1)
        np.testing.assert_array_equal(plan.inverse_counts(np.float64), expected)


class TestKernelParity:
    """Plan kernels, with and without a cached plan, vs the oracle."""

    def _forward_backward(self, build_out, x, grad=None):
        x.zero_grad()
        out = build_out()
        out.backward(np.ones_like(out.data) if grad is None else grad)
        return out.data.copy(), x.grad.copy()

    def _assert_matches(self, x, run, reference, grad=None):
        """``run(plan_or_none)`` with and without the plan equals the oracle."""
        ref_out, vjp = reference(x.data)
        ref_grad = vjp(np.ones_like(ref_out) if grad is None else grad)
        for use_plan in (True, False):
            out, got = self._forward_backward(lambda: run(use_plan), x, grad)
            np.testing.assert_array_equal(out, ref_out)
            np.testing.assert_array_equal(got, ref_grad)

    @pytest.mark.parametrize("num_items,num_segments", [(200, 37), (1, 5), (6, 1)])
    def test_segment_sum_bitwise(self, num_items, num_segments):
        ids, S = _segments(num_items=num_items, num_segments=num_segments)
        x = Tensor(
            np.random.default_rng(0).standard_normal((num_items, 4)),
            requires_grad=True,
        )
        plan = SegmentPlan.build(ids, S)
        self._assert_matches(
            x,
            lambda use_plan: nn.segment_sum(
                x, ids, S, plan=plan if use_plan else None
            ),
            lambda data: oracle.segment_sum(data, ids, S),
        )

    def test_segment_mean_bitwise(self):
        ids, S = _segments(seed=6)
        x = Tensor(
            np.random.default_rng(6).standard_normal((len(ids), 4)),
            requires_grad=True,
        )
        plan = SegmentPlan.build(ids, S)
        self._assert_matches(
            x,
            lambda use_plan: nn.segment_mean(
                x, ids, S, plan=plan if use_plan else None
            ),
            lambda data: oracle.segment_mean(data, ids, S),
        )

    def test_gather_rows_backward_bitwise(self):
        ids, S = _segments(seed=7)
        x = Tensor(
            np.random.default_rng(7).standard_normal((S, 4)), requires_grad=True
        )
        plan = SegmentPlan.build(ids, S)
        self._assert_matches(
            x,
            lambda use_plan: nn.gather_rows(
                x, ids, plan=plan if use_plan else None
            ),
            lambda data: oracle.gather_rows(data, ids),
            grad=np.random.default_rng(8).standard_normal((len(ids), 4)),
        )

    def test_segment_softmax_roundoff(self):
        """Closed-form backward vs the composite chain: roundoff, not bitwise."""
        ids, S = _segments(seed=9)
        scores = Tensor(
            np.random.default_rng(9).standard_normal((len(ids), 1)),
            requires_grad=True,
        )
        plan = SegmentPlan.build(ids, S)
        grad = np.random.default_rng(10).standard_normal((len(ids), 1))
        composite_out, vjp = oracle.segment_softmax_composite(
            scores.data, ids, S
        )
        planned = self._forward_backward(
            lambda: nn.segment_softmax(scores, ids, S, plan=plan), scores, grad
        )
        np.testing.assert_array_equal(composite_out, planned[0])
        np.testing.assert_allclose(
            vjp(grad), planned[1], rtol=1e-10, atol=1e-13
        )
        # per-segment normalisation still holds exactly where edges exist
        sums = SegmentPlan.build(ids, S).scatter_add(planned[0])
        np.testing.assert_allclose(sums[plan.present], 1.0, atol=1e-12)

    def test_scatter_rows_bitwise_disjoint(self):
        # disjoint per-type index sets, as the node-type encoder produces
        rng = np.random.default_rng(10)
        perm = rng.permutation(12)
        idx_a, idx_b = perm[:5], perm[5:]
        a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        plans = [SegmentPlan.build(idx_a, 12), SegmentPlan.build(idx_b, 12)]
        ref_out, vjp = oracle.scatter_rows(
            [a.data, b.data], [idx_a, idx_b], 12
        )
        ref_grads = vjp(np.ones_like(ref_out))

        for use_plans in (True, False):
            a.zero_grad()
            b.zero_grad()
            out = nn.scatter_rows(
                [a, b], [idx_a, idx_b], 12, plans=plans if use_plans else None
            )
            out.backward(np.ones_like(out.data))
            np.testing.assert_array_equal(out.data, ref_out)
            np.testing.assert_array_equal(a.grad, ref_grads[0])
            np.testing.assert_array_equal(b.grad, ref_grads[1])

    def test_single_edge_type_single_segment(self):
        # all rows land in one segment — degenerate single-boundary plan
        ids = np.zeros(9, dtype=np.int64)
        x = Tensor(
            np.random.default_rng(11).standard_normal((9, 2)), requires_grad=True
        )
        plan = SegmentPlan.build(ids, 1)
        self._assert_matches(
            x,
            lambda use_plan: nn.segment_sum(
                x, ids, 1, plan=plan if use_plan else None
            ),
            lambda data: oracle.segment_sum(data, ids, 1),
        )


class TestGradients:
    """Numeric-gradient checks through the plan-based code paths."""

    def test_segment_sum_gradcheck(self):
        ids, S = _segments(num_items=20, num_segments=6)
        plan = SegmentPlan.build(ids, S)
        x = Tensor(
            np.random.default_rng(12).standard_normal((20, 3)), requires_grad=True
        )
        assert_gradients_match(
            lambda: (nn.segment_sum(x, ids, S, plan=plan) ** 2).sum(), [x]
        )

    def test_segment_mean_gradcheck(self):
        ids, S = _segments(num_items=20, num_segments=6)
        plan = SegmentPlan.build(ids, S)
        x = Tensor(
            np.random.default_rng(13).standard_normal((20, 3)), requires_grad=True
        )
        assert_gradients_match(
            lambda: (nn.segment_mean(x, ids, S, plan=plan) ** 2).sum(), [x]
        )

    def test_segment_softmax_gradcheck_fused(self):
        ids, S = _segments(num_items=20, num_segments=6)
        plan = SegmentPlan.build(ids, S)
        scores = Tensor(
            np.random.default_rng(14).standard_normal((20, 1)), requires_grad=True
        )
        assert_gradients_match(
            lambda: (
                nn.segment_softmax(scores, ids, S, plan=plan) ** 2
            ).sum(),
            [scores],
        )

    def test_gather_rows_gradcheck(self):
        ids, S = _segments(num_items=20, num_segments=6)
        plan = SegmentPlan.build(ids, S)
        x = Tensor(
            np.random.default_rng(15).standard_normal((S, 3)), requires_grad=True
        )
        assert_gradients_match(
            lambda: (nn.gather_rows(x, ids, plan=plan) ** 2).sum(), [x]
        )


class TestKernelMode:
    def test_plan_validated_against_kernel_call(self):
        ids, S = _segments()
        plan = SegmentPlan.build(ids, S)
        x = Tensor(np.zeros((len(ids), 2)))
        with pytest.raises(ShapeError):
            nn.segment_sum(x, ids, S + 3, plan=plan)
