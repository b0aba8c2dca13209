"""Full-train-step benchmarks on the merged training split.

``test_train_step`` times one complete ParaGraph training step (forward +
backward + Adam update) — the exact workload of ``TargetPredictor.fit`` —
plus the three segment kernels in isolation on the merged graph; the
record lands in ``benchmarks/results/train_step.json``.
``test_train_step_megabatch_multitask`` compares one shared-trunk step
over all 13 targets with 13 per-target steps
(``benchmarks/results/train_step_megabatch.json``).

``REPRO_BENCH_MIN_SPEEDUP`` sets the minimum acceptable shared-trunk
speedup (default 2.0; the CI perf-smoke job relaxes it to 1.0 because tiny
graphs amortise nothing).
"""

import os
import time

import numpy as np
import pytest

from benchmarks._util import emit_json
from repro.circuits.devices import NODE_TYPES
from repro.data.targets import ALL_TARGETS, target_by_name
from repro.flows.runtime import MergedInputsCache
from repro.graph.features import feature_dim
from repro.models import MultiTaskModel, ReadoutHead, SharedTrunk, TrainConfig
from repro.models.trainer import resolve_target_scaler
from repro.nn import Adam, Tensor, mse_loss, ops
from repro.nn.plan import SegmentPlan
from repro.rng import stream

MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))


def _one_head_model(target, num_fc_layers, rng):
    """A per-target ParaGraph model (paper setup): one head on the trunk,
    trunk and head drawn from one generator as the trainer does."""
    trunk = SharedTrunk(
        "paragraph",
        {t: feature_dim(t) for t in NODE_TYPES},
        rng,
        embed_dim=32,
        num_layers=5,
    )
    return MultiTaskModel(trunk, {target: ReadoutHead(32, num_fc_layers, rng)})


@pytest.fixture(scope="module")
def train_setup(bundle):
    """Merged training split + a fresh ParaGraph model and optimizer."""
    records = bundle.records("train")
    cache = MergedInputsCache()
    inputs, ids, values = cache.merged_target(
        records, bundle.scaler, target_by_name("CAP")
    )
    model = _one_head_model("CAP", 4, stream(0, "bench-train-step"))
    optimizer = Adam(model.parameters(), lr=0.01)
    target = Tensor(np.log1p(np.abs(values)).reshape(-1, 1))

    def step():
        optimizer.zero_grad()
        loss = mse_loss(model(inputs, "CAP", ids), target)
        loss.backward()
        optimizer.step()
        return loss.item()

    return inputs, ids, step


def _time_steps(step, repeats: int = 3, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall time of one training step, in seconds."""
    for _ in range(warmup):
        step()
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - tick)
    return best


def _time_call(fn, repeats: int = 5, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tick)
    return best


def _kernel_cases(inputs):
    """The three hot segment kernels on the merged graph's edge arrays."""
    dst = inputs.merged_dst
    _, dst_plan = inputs.merged_plans()
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((len(dst), 32)))
    nodes = Tensor(rng.standard_normal((inputs.num_nodes, 32)))
    scores = Tensor(rng.standard_normal((len(dst), 1)))

    def seg_sum():
        out = ops.segment_sum(x, dst, inputs.num_nodes, plan=dst_plan)
        out.backward(np.ones_like(out.data))

    def softmax():
        out = ops.segment_softmax(scores, dst, inputs.num_nodes, plan=dst_plan)
        out.backward(np.ones_like(out.data))

    def gather_bwd():
        out = ops.gather_rows(nodes, dst, plan=dst_plan)
        out.backward(np.ones_like(out.data))

    return {
        "segment_sum_fwd_bwd": seg_sum,
        "segment_softmax_fwd_bwd": softmax,
        "gather_rows_fwd_bwd": gather_bwd,
    }


def test_train_step(benchmark, train_setup, config):
    inputs, ids, step = train_setup
    step_seconds = _time_steps(step)
    kernels = {
        name: {"seconds": _time_call(fn)}
        for name, fn in _kernel_cases(inputs).items()
    }

    # pytest-benchmark statistics for the steady-state step.
    loss = benchmark(step)
    assert np.isfinite(loss)

    emit_json(
        "train_step", benchmark,
        params={
            "model": "paragraph",
            "embed_dim": 32,
            "num_layers": 5,
            "dtype": "float64",
            "num_nodes": inputs.num_nodes,
            "num_edges": len(inputs.merged_dst),
            "num_target_nodes": len(ids),
            "dataset_scale": config.dataset_scale,
        },
        metrics={
            "step_seconds": step_seconds,
            "kernels": kernels,
            "loss": loss,
        },
    )
    print(f"\ntrain step: {step_seconds * 1e3:.1f}ms", flush=True)


@pytest.fixture(scope="module")
def multitask_setup(bundle):
    """Mega-batched inputs plus per-target (ids, targets, plan, fc) tuples."""
    records = bundle.records("train")
    cache = MergedInputsCache()
    cfg = TrainConfig()
    inputs = None
    prepared = {}
    for spec in ALL_TARGETS:
        inputs, ids, values = cache.merged_target(records, bundle.scaler, spec)
        scaler, fc = resolve_target_scaler(spec, values, cfg)
        prepared[spec.name] = (
            ids,
            Tensor(scaler.transform(values).reshape(-1, 1)),
            SegmentPlan.build(ids, inputs.num_nodes),
            fc,
        )
    return inputs, prepared


def test_train_step_megabatch_multitask(benchmark, multitask_setup, config):
    """Shared-trunk multi-task step vs 13 independent per-target steps.

    Both paths consume the same mega-batched inputs; the baseline pays one
    full trunk pass (encoder + 5 convs, forward and backward) per target,
    the shared trunk pays exactly one for all 13 heads.
    """
    inputs, prepared = multitask_setup
    dims = {t: feature_dim(t) for t in NODE_TYPES}

    # Baseline: the paper's setup — an independent one-head model per target.
    baseline = {}
    for name, (ids, target, plan, fc) in prepared.items():
        model = _one_head_model(
            name, fc, stream(0, "bench-multitask", "base", name)
        )
        baseline[name] = (model, Adam(model.parameters(), lr=0.01))

    def step_per_target():
        total = 0.0
        for name, (model, optimizer) in baseline.items():
            ids, target, plan, _ = prepared[name]
            optimizer.zero_grad()
            loss = mse_loss(model(inputs, name, ids), target)
            loss.backward()
            optimizer.step()
            total += loss.item()
        return total

    # Shared trunk: one embedding pass feeds every readout head.
    trunk = SharedTrunk(
        "paragraph", dims, stream(0, "bench-multitask", "trunk"),
        embed_dim=32, num_layers=5,
    )
    heads = {
        name: ReadoutHead(32, fc, stream(0, "bench-multitask", "head", name))
        for name, (_, _, _, fc) in prepared.items()
    }
    model = MultiTaskModel(trunk, heads)
    optimizer = Adam(model.parameters(), lr=0.01)

    def step_multitask():
        optimizer.zero_grad()
        z = model.embed(inputs)
        total = None
        for name, (ids, target, plan, _) in prepared.items():
            term = mse_loss(model.heads[name](z, ids, plan), target)
            total = term if total is None else total + term
        total.backward()
        optimizer.step()
        return total.item()

    per_target_seconds = _time_steps(step_per_target)
    multitask_seconds = _time_steps(step_multitask)
    speedup = per_target_seconds / multitask_seconds

    loss = benchmark(step_multitask)
    assert np.isfinite(loss)

    emit_json(
        "train_step_megabatch", benchmark,
        params={
            "model": "paragraph",
            "embed_dim": 32,
            "num_layers": 5,
            "dtype": "float64",
            "num_targets": len(prepared),
            "num_nodes": inputs.num_nodes,
            "num_edges": len(inputs.merged_dst),
            "dataset_scale": config.dataset_scale,
        },
        metrics={
            "per_target_step_seconds": per_target_seconds,
            "multitask_step_seconds": multitask_seconds,
            "speedup": speedup,
            "min_speedup_required": MIN_SPEEDUP,
            "loss": loss,
        },
    )
    print(
        f"\nmulti-target step: per-target={per_target_seconds * 1e3:.1f}ms "
        f"shared-trunk={multitask_seconds * 1e3:.1f}ms ({speedup:.2f}x)",
        flush=True,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"shared-trunk speedup {speedup:.2f}x below required {MIN_SPEEDUP}x"
    )
