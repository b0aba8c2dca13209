"""Serving-layer throughput: merged-batch engine vs the naive predict loop.

The acceptance bar for the unified prediction API: ``Engine.predict_batch``
over 64 cached-graph circuits must beat a naive ``predict_one`` loop by
at least 3x, with the graph-cache hit rate and the queue bound
observable through ``repro.obs`` and ``Engine.stats()``.

The same artifact also records the end-to-end per-request p50 latency of
the float32 serving default against a float64 engine over the identical
warmed workload (weights cast at load from one saved artifact), so the
float32 fast path's measured win ships with the repo.
"""

import os
import statistics
import tempfile
import time

from benchmarks._util import emit, emit_json
from repro import obs
from repro.api import create_engine, predict_one
from repro.api.types import PredictionRequest
from repro.models import TargetPredictor, TrainConfig

NUM_REQUESTS = 64


def test_serve_throughput_vs_naive_loop(benchmark, bundle):
    predictor = TargetPredictor(
        "paragraph",
        "CAP",
        TrainConfig(epochs=2, embed_dim=16, num_layers=3, run_seed=0),
    ).fit(bundle)
    circuits = [record.circuit for record in bundle.records("test")]
    requests = [
        PredictionRequest(circuit=circuits[i % len(circuits)])
        for i in range(NUM_REQUESTS)
    ]

    # the naive way: one full build-scale-forward per circuit, no cache
    tick = time.perf_counter()
    for request in requests:
        predict_one(predictor, request.circuit)
    naive_seconds = time.perf_counter() - tick

    obs.enable()
    try:
        with create_engine(predictor, max_batch=16) as engine:
            for circuit in circuits:  # warm the graph cache
                engine.predict(circuit)

            results = benchmark(lambda: engine.predict_batch(requests))
            batched_seconds = benchmark.stats.stats.min
            stats = engine.stats()
            snapshot = obs.registry().snapshot()
    finally:
        obs.disable()

    assert len(results) == NUM_REQUESTS
    assert all(r.timing.cache_hit for r in results)
    assert max(r.timing.batch_size for r in results) > 1

    # cache hits and batch sizes are observable through repro.obs
    rows = {row["name"]: row for row in snapshot}
    assert rows["serve.graph_cache_hits_total"]["value"] >= NUM_REQUESTS
    assert rows["api.forward_batch_size"]["count"] >= 1

    # float32 serving default vs float64: end-to-end p50 of single
    # predicts on a warm cache, weights cast at load from one artifact
    precision_rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cap_model.npz")
        predictor.save(path)
        for dtype in ("float64", "float32"):
            with create_engine(path, max_batch=16, dtype=dtype) as eng:
                for circuit in circuits:  # warm graph cache
                    eng.predict(circuit)
                samples = []
                for _ in range(3):
                    for request in requests:
                        tick = time.perf_counter()
                        eng.predict(request)
                        samples.append(time.perf_counter() - tick)
            precision_rows[dtype] = {
                "p50_s": statistics.median(samples),
                "mean_s": statistics.fmean(samples),
                "samples": len(samples),
            }
    p50_speedup = (
        precision_rows["float64"]["p50_s"] / precision_rows["float32"]["p50_s"]
    )

    speedup = naive_seconds / batched_seconds
    hit_rate = stats["graph_cache"]["hit_rate"]
    emit(
        "serve_throughput",
        f"serve throughput over {NUM_REQUESTS} requests "
        f"({len(circuits)} distinct circuits):\n"
        f"  naive loop    {naive_seconds * 1e3:9.1f} ms\n"
        f"  predict_batch {batched_seconds * 1e3:9.1f} ms\n"
        f"  speedup       {speedup:9.1f}x (cache hit rate {hit_rate:.2f})\n"
        f"  p50 latency   float64 "
        f"{precision_rows['float64']['p50_s'] * 1e3:.2f} ms, float32 "
        f"{precision_rows['float32']['p50_s'] * 1e3:.2f} ms "
        f"({p50_speedup:.2f}x)",
    )
    emit_json(
        "serve_throughput", benchmark,
        params={
            "num_requests": NUM_REQUESTS,
            "distinct_circuits": len(circuits),
            "max_batch": 16,
        },
        metrics={
            "naive_s": naive_seconds,
            "batched_s": batched_seconds,
            "speedup": speedup,
            "cache_hit_rate": hit_rate,
            "cache_hits": stats["graph_cache"]["hits"],
            "cache_misses": stats["graph_cache"]["misses"],
            "queue_depth": stats["queue"]["queue_depth"],
            "max_batch_size": max(r.timing.batch_size for r in results),
            "precision": precision_rows,
            "float32_p50_speedup": p50_speedup,
        },
    )
    assert speedup >= 3.0, f"batched serving only {speedup:.2f}x faster"
