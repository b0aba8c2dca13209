"""Micro-benchmarks of the core pipeline stages.

Unlike the table/figure benchmarks (one-shot experiment drivers), these
measure repeatable kernels with real statistics: graph construction, layout
synthesis, a ParaGraph forward pass, and a full training step.
"""

import time

import numpy as np
import pytest

from benchmarks._util import emit_json
from repro import obs
from repro.circuits.devices import NODE_TYPES
from repro.circuits.generators.chip import TRAIN_RECIPES, compose_chip
from repro.data.targets import target_by_name
from repro.flows.runtime import MergedInputsCache
from repro.graph import build_graph, merge_graphs
from repro.graph.features import feature_dim
from repro.layout import synthesize_layout
from repro.models import GraphInputs, MultiTaskModel, ReadoutHead, SharedTrunk
from repro.nn import Adam, Tensor, mse_loss
from repro.rng import stream


def _cap_model(rng):
    """A per-target ParaGraph CAP model: one readout head on the trunk."""
    trunk = SharedTrunk(
        "paragraph",
        {t: feature_dim(t) for t in NODE_TYPES},
        rng,
        embed_dim=32,
        num_layers=5,
    )
    return MultiTaskModel(trunk, {"CAP": ReadoutHead(32, 4, rng)})


@pytest.fixture(scope="module")
def perf_circuit():
    return compose_chip(TRAIN_RECIPES[3], seed=0, scale=0.3).circuit


@pytest.fixture(scope="module")
def perf_inputs(perf_circuit, bundle):
    graph = build_graph(perf_circuit)
    return GraphInputs.from_graph(graph, bundle.scaler), graph


def test_perf_graph_construction(benchmark, perf_circuit):
    graph = benchmark(lambda: build_graph(perf_circuit))
    assert graph.num_nodes > 100
    emit_json(
        "core_perf_graph_construction", benchmark,
        params={"circuit": perf_circuit.name},
        metrics={"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
    )


def test_perf_layout_synthesis(benchmark, perf_circuit):
    result = benchmark(lambda: synthesize_layout(perf_circuit, seed=1))
    assert len(result.net_caps) > 50
    emit_json(
        "core_perf_layout_synthesis", benchmark,
        params={"circuit": perf_circuit.name, "seed": 1},
        metrics={"net_caps": len(result.net_caps)},
    )


def test_perf_paragraph_forward(benchmark, perf_inputs):
    inputs, graph = perf_inputs
    model = _cap_model(stream(0, "perf"))
    model.eval()
    ids = graph.nodes_of_type["net"]
    out = benchmark(lambda: model(inputs, "CAP", ids))
    assert out.shape == (len(ids), 1)
    emit_json(
        "core_perf_paragraph_forward", benchmark,
        params={"embed_dim": 32, "num_layers": 5},
        metrics={"net_nodes": len(ids)},
    )


def test_perf_training_step(benchmark, perf_inputs):
    inputs, graph = perf_inputs
    model = _cap_model(stream(0, "perf-step"))
    ids = graph.nodes_of_type["net"]
    target = Tensor(np.zeros((len(ids), 1)))
    optimizer = Adam(model.parameters(), lr=0.01)

    def step():
        optimizer.zero_grad()
        loss = mse_loss(model(inputs, "CAP", ids), target)
        loss.backward()
        optimizer.step()
        return loss.item()

    loss = benchmark(step)
    assert np.isfinite(loss)
    emit_json(
        "core_perf_training_step", benchmark,
        params={"embed_dim": 32, "num_layers": 5},
        metrics={"loss": loss},
    )


def test_perf_merge_graphs(benchmark, bundle):
    graphs = [record.graph for record in bundle.records("train")]
    merged = benchmark(lambda: merge_graphs(graphs))
    assert merged.num_nodes == sum(g.num_nodes for g in graphs)
    emit_json(
        "core_perf_merge_graphs", benchmark,
        params={"num_graphs": len(graphs)},
        metrics={"merged_nodes": merged.num_nodes},
    )


def test_perf_multi_target_setup_cached(benchmark, bundle):
    """Multi-target training setup: one shared MergedInputsCache vs
    rebuilding the merged GraphInputs per target (a fresh cache each).
    """
    records = bundle.records("train")
    specs = [target_by_name(n) for n in ("CAP", "RES", "SA", "DA", "SP", "DP")]

    def uncached_setup():
        for spec in specs:
            inputs, ids, values = MergedInputsCache().merged_target(
                records, bundle.scaler, spec
            )
        return inputs

    def cached_setup():
        cache = MergedInputsCache()
        for spec in specs:
            inputs, ids, values = cache.merged_target(records, bundle.scaler, spec)
        return cache, inputs

    tick = time.perf_counter()
    uncached_setup()
    uncached_seconds = time.perf_counter() - tick

    tick = time.perf_counter()
    cache, inputs = cached_setup()
    cached_seconds = time.perf_counter() - tick
    # the benchmark below adds hits, so count the setup lookups first
    assert cache.misses == 1 and cache.hits == len(specs) - 1
    assert inputs.num_nodes == sum(r.graph.num_nodes for r in records)
    benchmark(lambda: cache.merged(records, bundle.scaler))  # steady-state hit
    # The cached path merges once instead of len(specs) times.
    assert cached_seconds < uncached_seconds
    print(
        f"\nmulti-target setup over {len(specs)} targets: "
        f"uncached={uncached_seconds * 1e3:.1f}ms "
        f"cached={cached_seconds * 1e3:.1f}ms "
        f"({uncached_seconds / cached_seconds:.1f}x)",
        flush=True,
    )


def test_perf_obs_disabled_overhead(benchmark, perf_circuit):
    """Disabled instrumentation must cost <2% of the stage it wraps.

    ``build_graph`` is the most densely instrumented hot path (one span and
    three metric calls per invocation); compare its wall time against the
    per-call price of the disabled span/counter/histogram fast paths.
    """
    assert not obs.is_enabled()

    tick = time.perf_counter()
    build_graph(perf_circuit)
    stage_seconds = time.perf_counter() - tick

    def probe():
        with obs.span("overhead.probe", circuit="x"):
            pass
        obs.inc("overhead.probe_total")
        obs.observe("overhead.probe_hist", 1.0)

    calls = 1000

    def probe_batch():
        for _ in range(calls):
            probe()

    benchmark(probe_batch)
    per_call = benchmark.stats.stats.min / calls
    emit_json(
        "core_perf_obs_disabled_overhead", benchmark,
        params={"circuit": perf_circuit.name, "calls": calls},
        metrics={
            "per_call_seconds": per_call,
            "stage_seconds": stage_seconds,
            "overhead_fraction": per_call / stage_seconds,
        },
    )
    # one instrumented call-site round per build_graph call: < 2% overhead
    assert per_call < 0.02 * stage_seconds
