"""Isolated kernel micro-benchmarks: the one kernel path, per precision.

Times the three hot kernel entry points of :mod:`repro.nn.ops` —
``segment_softmax``, ``gather_rows`` and ``scatter_rows`` — forward *and*
backward (all tensors require grad) on a synthetic workload sized like a
large mega-batch, at float64 and float32.  A kernel time is evidence for
one stage, not for the system; end-to-end numbers come from
``perfbench/``.

The record lands in ``benchmarks/results/kernels.json``.
"""

import time

import numpy as np

from benchmarks._util import emit_json
from repro.nn import Tensor, ops
from repro.nn import precision
from repro.nn.plan import SegmentPlan

#: Synthetic workload: a mega-batch-sized graph reduction.
NUM_NODES = 20_000
NUM_EDGES = 200_000
DIM = 32


def _time_call(fn, repeats: int = 5, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn()``, in seconds."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tick)
    return best


def _kernel_cases(ids: np.ndarray, plan: SegmentPlan, rng):
    """fwd+bwd closure per kernel at the active compute precision."""
    dtype = precision.get_compute_dtype()
    scores = Tensor(rng.standard_normal((NUM_EDGES, 1)), requires_grad=True)
    nodes = Tensor(rng.standard_normal((NUM_NODES, DIM)), requires_grad=True)
    piece = Tensor(rng.standard_normal((NUM_EDGES, DIM)), requires_grad=True)
    grad_scores = np.ones((NUM_EDGES, 1), dtype=dtype)
    grad_edges = np.ones((NUM_EDGES, DIM), dtype=dtype)
    grad_nodes = np.ones((NUM_NODES, DIM), dtype=dtype)

    def softmax():
        out = ops.segment_softmax(scores, ids, NUM_NODES, plan=plan)
        out.backward(grad_scores)

    def gather():
        out = ops.gather_rows(nodes, ids, plan=plan)
        out.backward(grad_edges)

    def scatter():
        out = ops.scatter_rows([piece], [ids], NUM_NODES, plans=[plan])
        out.backward(grad_nodes)

    return {
        "segment_softmax": softmax,
        "gather_rows": gather,
        "scatter_rows": scatter,
    }


def test_kernel_timings(benchmark):
    rng = np.random.default_rng(0)
    ids = rng.integers(0, NUM_NODES, size=NUM_EDGES).astype(np.int64)
    plan = SegmentPlan.build(ids, NUM_NODES)

    results: dict[str, dict] = {}
    for dtype in ("float64", "float32"):
        with precision.compute_dtype(dtype):
            cases = _kernel_cases(ids, plan, rng)
            results[dtype] = {
                kernel: {"seconds": _time_call(fn)}
                for kernel, fn in cases.items()
            }

    # pytest-benchmark statistics for the float32 softmax steady state.
    with precision.compute_dtype("float32"):
        cases = _kernel_cases(ids, plan, rng)
        benchmark(cases["segment_softmax"])

    emit_json(
        "kernels", benchmark,
        params={"num_nodes": NUM_NODES, "num_edges": NUM_EDGES, "dim": DIM},
        metrics={"kernels": results},
    )
    for dtype, per_kernel in results.items():
        for kernel, row in per_kernel.items():
            print(f"{dtype} {kernel}: {row['seconds'] * 1e3:.2f}ms", flush=True)
