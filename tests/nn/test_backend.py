"""Every ``repro.nn.ops`` kernel against the kernel oracle.

The contract: at float64 each kernel entry point equals its composite
numpy form in :mod:`tests.nn.kernel_oracle` bitwise, forward *and*
backward (``np.array_equal``, so relu's ``+0.0`` from ``np.maximum`` and
the oracle's ``-0.0`` from a mask multiply compare equal).  At float32
forwards agree to ``FLOAT32_RTOL`` (4 ulp).  Edge cases — empty segments,
a single node, empty inputs — hold the same contract.
"""

import numpy as np
import pytest

from repro.nn import Tensor, ops
from repro.nn.plan import SegmentPlan
from repro.nn.precision import compute_dtype

from tests.api.test_backends import FLOAT32_RTOL
from tests.nn import kernel_oracle as oracle

NUM_ITEMS, NUM_SEGMENTS, DIM = 40, 11, 5


def _cases(ids, num_segments, plan):
    """kernel -> (input name, repro.nn.ops call, oracle call)."""
    n = num_segments
    return {
        "segment_sum": (
            "values",
            lambda x: ops.segment_sum(x, ids, n, plan=plan),
            lambda a: oracle.segment_sum(a, ids, n),
        ),
        "segment_mean": (
            "values",
            lambda x: ops.segment_mean(x, ids, n, plan=plan),
            lambda a: oracle.segment_mean(a, ids, n),
        ),
        "segment_softmax": (
            "scores",
            lambda x: ops.segment_softmax(x, ids, n, plan=plan),
            lambda a: oracle.segment_softmax(a, ids, n),
        ),
        "gather_rows": (
            "nodes",
            lambda x: ops.gather_rows(x, ids, plan=plan),
            lambda a: oracle.gather_rows(a, ids),
        ),
        "scatter_rows": (
            "values",
            lambda x: ops.scatter_rows([x], [ids], n, plans=[plan]),
            lambda a: oracle.scatter_rows([a], [ids], n),
        ),
        "relu": ("values", ops.relu, oracle.relu),
        "leaky_relu": ("values", ops.leaky_relu, oracle.leaky_relu),
        "l2_normalize_rows": (
            "values", ops.l2_normalize_rows, oracle.l2_normalize_rows
        ),
    }


def _kernel_results(dtype, ids, num_segments, seed=0):
    """kernel -> ((out, grad) from repro.nn.ops, (out, grad) from the oracle)."""
    ids = np.asarray(ids, dtype=np.int64)
    plan = SegmentPlan.build(ids, num_segments)
    rng = np.random.default_rng(seed)
    arrays = {
        "values": rng.standard_normal((len(ids), DIM)).astype(dtype),
        "scores": rng.standard_normal((len(ids), 1)).astype(dtype),
        "nodes": rng.standard_normal((num_segments, DIM)).astype(dtype),
    }
    results = {}
    with compute_dtype(dtype):
        for kernel, (name, op, reference) in _cases(
            ids, num_segments, plan
        ).items():
            x = Tensor(arrays[name], requires_grad=True)
            out = op(x)
            upstream = rng.standard_normal(out.shape).astype(dtype)
            out.backward(upstream)
            ref_out, vjp = reference(arrays[name])
            ref_grad = vjp(upstream)
            if kernel == "scatter_rows":
                (ref_grad,) = ref_grad
            results[kernel] = ((out.data, x.grad), (ref_out, ref_grad))
    return results


def _random_ids(seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, NUM_SEGMENTS, size=NUM_ITEMS)


def _assert_bitwise(results):
    for kernel, ((out, grad), (ref_out, ref_grad)) in results.items():
        assert out.dtype == ref_out.dtype, kernel
        np.testing.assert_array_equal(out, ref_out, err_msg=f"{kernel} forward")
        np.testing.assert_array_equal(
            grad, ref_grad, err_msg=f"{kernel} backward"
        )


def _assert_float32_contract(results):
    for kernel, ((out, grad), (ref_out, ref_grad)) in results.items():
        assert out.dtype == np.float32, kernel
        np.testing.assert_allclose(
            out, ref_out, rtol=FLOAT32_RTOL, atol=1e-30,
            err_msg=f"{kernel} forward",
        )
        np.testing.assert_allclose(
            grad, ref_grad, rtol=1e-5, atol=1e-7, err_msg=f"{kernel} backward"
        )


class TestFloat64Parity:
    def test_kernels_bit_identical(self):
        _assert_bitwise(_kernel_results("float64", _random_ids(), NUM_SEGMENTS))


class TestFloat32Parity:
    def test_kernels_match_within_ulps(self):
        _assert_float32_contract(
            _kernel_results("float32", _random_ids(), NUM_SEGMENTS)
        )

    def test_outputs_are_float32(self):
        with compute_dtype("float32"):
            scores = Tensor(
                np.random.default_rng(0).standard_normal((NUM_ITEMS, 1))
            )
            out = ops.segment_softmax(scores, _random_ids(), NUM_SEGMENTS)
        assert out.data.dtype == np.float32


class TestEdgeCases:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_empty_segments_match_oracle(self, dtype):
        # half the segments receive no items: softmax denominators guard,
        # means divide by max(count, 1), sums stay zero
        self._check(dtype, [0, 0, 2, 2, 2], 6)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_single_node_graph(self, dtype):
        results = self._check(dtype, [0], 1)
        (alpha, _), _ = results["segment_softmax"]
        np.testing.assert_array_equal(alpha, np.ones((1, 1)))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_empty_items(self, dtype):
        results = self._check(dtype, [], 4)
        (summed, _), _ = results["segment_sum"]
        np.testing.assert_array_equal(summed, np.zeros((4, DIM)))

    def _check(self, dtype, ids, num_segments):
        results = _kernel_results(dtype, ids, num_segments)
        if dtype == "float64":
            _assert_bitwise(results)
        else:
            _assert_float32_contract(results)
        return results
