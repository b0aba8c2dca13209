#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

* ``serve_hot``  — a 1-worker ServerPool, 2 keep-alive connections, each
  request one cached test circuit asking for CAP.
* ``serve_cold`` — the same pool shape, 1 keep-alive connection, each
  request 3 never-cached circuits asking for all 13 targets.
* ``train_shared`` — in-process ``train()`` of the shared-trunk model.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures the
workload untraced, then again with the layer shims of
``perfbench/tracing.py`` installed, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_hot", "serve_cold", "train_shared")
#: Set-ups per run (6-14 s of set-up in all: more repeats where one set-up
#: is short); setup_s is their median.
SETUP_REPEATS = {"serve_hot": 4, "serve_cold": 2, "train_shared": 7}
#: BLAS / OpenMP pools are pinned to one thread so the client and the
#: worker never oversubscribe the cores they share (the pool host and its
#: worker inherit the setting); the values are recorded per run.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: A client process above this share of one core is flagged as saturated.
CLIENT_SATURATED_PCT = 90.0

#: Tail percentile per workload: the highest of stats.TAIL_LADDER with at
#: least ten samples beyond it at the benchmark's 25 s run length
#: (serve_hot ≈620-820 requests, serve_cold ≈45-60, train_shared ≈50-90 epochs).
#: The tail is in the detail line, not an end-to-end metric: see NOTES.md.
TAIL_PERCENTILE = {"serve_hot": 95.0, "serve_cold": 75.0, "train_shared": 75.0}

END_TO_END = {
    "setup_s": "s",
    "latency_mean_ms": "ms",
    "throughput_rps": "1/s",
    "circuits_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_process(run_dir: str) -> dict:
    """Pin thread pools, keep temp files in the checkout, find ``src``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    return {var: os.environ[var] for var in THREAD_VARS}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _reset_peak_rss() -> None:
    """Set this process's ``VmHWM`` back to its current RSS (proc(5) clear_refs)."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


def _timed(fn, *args, **kwargs):
    tick = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - tick


# ----------------------------------------------------------------------
# serve_hot / serve_cold
# ----------------------------------------------------------------------
def serving_model(seed: int, run_dir: str):
    """Train the served 13-target model once per run and save it.

    Returns the model, the directory the pool host loads it from, and the
    ``train()`` wall time.  Training is not part of ``setup_s``: the
    train_shared workload measures training, and this one-epoch fit swings
    with the host far more than the rest of the set-up does.
    """
    from perfbench import workloads as wl
    from repro.flows import train

    result, train_s = _timed(train, wl.serving_bundle(seed), wl.serving_plan(seed))
    model_dir = os.path.join(run_dir, "model")
    result.model.save_dir(model_dir)
    return result.model, model_dir, train_s


class ServeRun:
    """One set-up of a serve workload: bodies, references, a started pool.

    The pool runs in ``perfbench/pool_host.py``, a process of its own that
    loads the saved model; this process is the load generator only.
    """

    def __init__(self, workload: str, seed: int, run_dir: str, model, model_dir: str):
        from perfbench import workloads as wl
        from perfbench.check import reference_answers

        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.hot = workload == "serve_hot"
        self.model_dir = model_dir
        self.cache_size = 256 if self.hot else wl.COLD_CACHE_SIZE
        # the host loads the model and forks while this process builds
        # the bodies and their references on the other core
        self.spawn_host()
        if self.hot:
            self.bodies = wl.hot_bodies(wl.serving_bundle(seed))
            self.items = 1
            self.connections = min(2, _nproc())
        else:
            self.bodies = wl.cold_bodies(seed, wl.cold_circuits(seed))
            self.items = wl.COLD_ITEMS
            self.connections = 1
        self.expected = reference_answers(model, self.bodies)
        self.await_host()

    def start_pool(self, spans_dir: str | None = None) -> None:
        self.spawn_host(spans_dir)
        self.await_host()

    def spawn_host(self, spans_dir: str | None = None) -> None:
        command = [
            sys.executable, os.path.join(ROOT, "perfbench", "pool_host.py"),
            "--models", self.model_dir,
            "--cache-size", str(self.cache_size),
            "--metrics-dir", os.path.join(self.run_dir, "obs"),
        ]
        if spans_dir is not None:
            command += ["--spans-dir", spans_dir]
        self.host = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def await_host(self) -> None:
        """Wait for the host's ready line, then warm the pool up."""
        from perfbench.check import matches
        from perfbench.loadgen import send_each

        try:
            ready = self.host.stdout.readline().split()
            if ready[:1] != ["ready"]:
                raise RuntimeError(f"pool host did not start: {ready}")
            self.port, self.worker = int(ready[1]), int(ready[2])
            # hot: put every test circuit in the cache; cold: start the
            # executor with the body sent last in the cycle
            warm = list(range(len(self.bodies))) if self.hot else self.orders_cold()[-1:]
            send_each(
                "127.0.0.1", self.port, [self.bodies[i] for i in warm],
                lambda k, data: matches(data, self.expected[warm[k]]),
            )
        except BaseException:
            self.stop_pool()
            raise

    def stop_pool(self) -> None:
        """Close the host's stdin; it drains the pool and exits."""
        self.host.stdin.close()
        try:
            self.host.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.host.kill()
            self.host.wait()
        self.host.stdout.close()

    def orders_cold(self) -> list[int]:
        from perfbench.workloads import cold_order

        return cold_order(self.seed, len(self.bodies))

    def measure(self, seconds: float, rid_prefix: str):
        from perfbench import workloads as wl
        from perfbench.loadgen import closed_loop

        if self.hot:
            orders = [
                wl.hot_order(self.seed, c, len(self.bodies))
                for c in range(self.connections)
            ]
        else:
            orders = [itertools.cycle(self.orders_cold())]
        load = closed_loop(
            "127.0.0.1", self.port, self.bodies, orders, seconds,
            rid_prefix=rid_prefix,
        )
        return load, _peak_rss_mb(self.worker)

    def verdicts(self, load) -> list[bool]:
        from perfbench.check import matches
        from perfbench.loadgen import outcomes

        return outcomes(load.samples, lambda s: matches(s.data, self.expected[s.body]))


def _latencies(values_ms: list[float], workload: str) -> dict:
    """Mean, median and the workload's tail, with the samples beyond the tail."""
    from perfbench.stats import highest_tail, percentile, samples_beyond

    tail = TAIL_PERCENTILE[workload]
    return {
        "latency_mean_ms": statistics.fmean(values_ms),
        "latency_p50_ms": percentile(values_ms, 50),
        "latency_tail_ms": percentile(values_ms, tail),
        "tail_percentile": tail,
        "samples": len(values_ms),
        "samples_beyond_tail": samples_beyond(len(values_ms), tail),
        "highest_valid_tail": highest_tail(len(values_ms)),
    }


def _serve_summary(run: ServeRun, load, ok: list[bool]) -> dict:
    good = [s.seconds * 1e3 for s, fine in zip(load.samples, ok) if fine]
    if not good:
        raise RuntimeError("no request succeeded")
    return {
        **_latencies(good, run.workload),
        "throughput_rps": len(good) / load.wall_s,
        "circuits_per_s": len(good) * run.items / load.wall_s,
        "client_cpu_pct": 100.0 * load.cpu_s / load.wall_s,
    }


def serve_end_to_end(args, run_dir: str) -> tuple[dict, int, int, dict]:
    model, model_dir, train_s = serving_model(args.seed, run_dir)
    setups, run = [], None
    for _ in range(SETUP_REPEATS[args.workload]):
        if run is not None:
            run.stop_pool()
        run, seconds = _timed(ServeRun, args.workload, args.seed, run_dir, model, model_dir)
        setups.append(seconds)
    try:
        load, rss = run.measure(args.seconds, "r")
    finally:
        run.stop_pool()
    ok = run.verdicts(load)
    summary = _serve_summary(run, load, ok)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_mean_ms": summary["latency_mean_ms"],
        "throughput_rps": summary["throughput_rps"],
        "circuits_per_s": summary["circuits_per_s"],
        "peak_rss_mb": rss,
    }
    detail = {
        "setups_s": setups,
        "train_s": train_s,
        "connections": run.connections,
        "client_threads": run.connections,
        **summary,
    }
    return metrics, len(ok), ok.count(False), detail


def serve_layers(args, run_dir: str) -> tuple[dict, int, int, dict]:
    from perfbench import tracing

    run = ServeRun(args.workload, args.seed, run_dir, *serving_model(args.seed, run_dir)[:2])
    try:
        plain, _ = run.measure(args.seconds, "u")
    finally:
        run.stop_pool()
    spans_dir = os.path.join(run_dir, "spans")
    os.makedirs(spans_dir)
    run.start_pool(spans_dir)
    try:
        traced, _ = run.measure(args.seconds, "t")
    finally:
        run.stop_pool()  # the worker writes its spans as it drains
    plain_ok, traced_ok = run.verdicts(plain), run.verdicts(traced)
    base = _serve_summary(run, plain, plain_ok)
    spans = tracing.load_dumps(spans_dir)
    layers, detail = _serve_layer_metrics(run, traced, traced_ok, spans, base)
    ok = plain_ok + traced_ok
    return layers, len(ok), ok.count(False), detail


def _serve_layer_metrics(run, traced, ok, spans, base) -> tuple[dict, dict]:
    from perfbench import stats
    from perfbench.stats import SPAN_EXTRA, SPAN_NAME, SPAN_RID, SPAN_T0, SPAN_T1

    done = {s.rid: s for s, fine in zip(traced.samples, ok) if fine}
    n = len(done)
    spans = [span for span in spans if span[SPAN_RID] in done]
    per_request = {
        name: total / n * 1e3
        for name, total in stats.self_time_by_name(spans).items()
    }
    handler = {
        span[SPAN_RID]: span[SPAN_T1] - span[SPAN_T0]
        for span in spans if span[SPAN_NAME] == "http.handler"
    }
    transport = [done[rid].seconds - seconds for rid, seconds in handler.items()]
    lookups = [span[SPAN_EXTRA] for span in spans if span[SPAN_NAME] == "cache.lookup"]
    timings = []
    for sample in done.values():
        payload = json.loads(sample.data)
        timings.extend(item["timing"] for item in payload.get("results", [payload]))
    layers = _layer_values(spans, per_request, n)
    layers.update({
        "http.transport_ms": statistics.fmean(transport) * 1e3,
        "http.response_kb": statistics.fmean(len(s.data) for s in done.values()) / 1024,
        "cache.hit_ratio": sum(hit for hit, _ in lookups) / len(lookups),
        "cache.evictions": sum(evicted for _, evicted in lookups) / n,
        "executor.queue_wait_ms": statistics.fmean(t["queue_s"] for t in timings) * 1e3,
        "executor.batch_size": statistics.fmean(t["batch_size"] for t in timings),
    })
    traced_summary = _serve_summary(run, traced, ok)
    stage_sum = sum(per_request.values())
    layers.update(_reconcile(
        stage_sum + layers["http.transport_ms"],
        statistics.fmean(s.seconds for s in done.values()) * 1e3,
        base["latency_p50_ms"], traced_summary["latency_p50_ms"],
    ))
    layers["trace.stage_sum_ms"] = stage_sum
    layers["client.cpu_pct"] = base["client_cpu_pct"]
    layers["client.saturated"] = float(base["client_cpu_pct"] > CLIENT_SATURATED_PCT)
    detail = {
        "untraced": base, "traced": traced_summary, "traced_requests": n,
        "spans": len(spans), "connections": run.connections,
    }
    return layers, detail


# ----------------------------------------------------------------------
# train_shared
# ----------------------------------------------------------------------
def _train_calls(bundle, seed: int, seconds: float) -> dict:
    """Repeat ``train()`` until *seconds* pass; every epoch is checked."""
    from perfbench.workloads import shared_plan
    from repro.errors import ModelError
    from repro.flows import RuntimeConfig, TrainCallback, train

    class LossCheck(TrainCallback):
        def __init__(self):
            self.attempted = self.failed = 0

        def on_epoch_end(self, ctx, metrics):
            self.attempted += 1
            self.failed += not math.isfinite(metrics.loss)

        def on_divergence(self, ctx, epoch, reason):
            self.attempted += 1
            self.failed += 1

    check = LossCheck()
    calls, epochs = [], []
    cpu0, start = time.process_time(), time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        tick = time.perf_counter()
        try:
            result = train(bundle, shared_plan(seed, RuntimeConfig(callbacks=[check])))
            epochs.extend(result.histories["multitask"].epoch_seconds)
        except ModelError:  # every retry diverged: the callback counted it
            pass
        calls.append(time.perf_counter() - tick)
    wall = time.perf_counter() - start
    return {
        "calls_s": calls, "epochs_s": epochs, "wall_s": wall,
        "cpu_s": time.process_time() - cpu0,
        "attempted": check.attempted, "failed": check.failed,
    }


def _train_summary(bundle, run: dict) -> dict:
    epochs_ms = [s * 1e3 for s in run["epochs_s"]]
    circuits = len(bundle.records("train"))
    return {
        **_latencies(epochs_ms, "train_shared"),
        "throughput_rps": len(epochs_ms) / run["wall_s"],
        "circuits_per_s": len(epochs_ms) * circuits / run["wall_s"],
        "train_s": statistics.median(run["calls_s"]),
        "client_cpu_pct": 100.0 * run["cpu_s"] / run["wall_s"],
    }


def _train_bundle(seed: int):
    from perfbench.workloads import TRAIN_SCALE
    from repro.data.dataset import build_bundle

    return build_bundle(seed=seed, scale=TRAIN_SCALE)


def train_end_to_end(args, run_dir: str) -> tuple[dict, int, int, dict]:
    setups, bundle = [], None
    for _ in range(SETUP_REPEATS[args.workload]):
        bundle = None  # one bundle alive at a time
        bundle, seconds = _timed(_train_bundle, args.seed)
        setups.append(seconds)
    _reset_peak_rss()  # peak_rss_mb is training's, not set-up's
    run = _train_calls(bundle, args.seed, args.seconds)
    summary = _train_summary(bundle, run)
    metrics = {
        "setup_s": statistics.median(setups),
        **{k: summary[k] for k in END_TO_END if k in summary},
        "peak_rss_mb": _peak_rss_mb(),
    }
    detail = {"setups_s": setups, "train_calls": len(run["calls_s"]), **summary}
    return metrics, run["attempted"], run["failed"], detail


def train_layers(args, run_dir: str) -> tuple[dict, int, int, dict]:
    from perfbench import stats, tracing

    bundle = _train_bundle(args.seed)
    plain = _train_calls(bundle, args.seed, args.seconds)
    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    try:
        traced = _train_calls(bundle, args.seed, args.seconds)
    finally:
        patches.restore()
    spans = recorder.spans
    base, traced_summary = _train_summary(bundle, plain), _train_summary(bundle, traced)
    n = len(traced["epochs_s"])
    per_epoch = {
        name: total / n * 1e3
        for name, total in stats.self_time_by_name(spans).items()
    }
    in_epochs = [
        span for span, root in zip(spans, stats.root_names(spans))
        if root != "train.inputs"
    ]
    stage_sum = sum(stats.self_time_by_name(in_epochs).values()) / n * 1e3
    layers = _layer_values(spans, per_epoch, n)
    layers.update(_reconcile(
        stage_sum,
        statistics.fmean(traced["epochs_s"]) * 1e3,
        base["latency_p50_ms"], traced_summary["latency_p50_ms"],
    ))
    layers["trace.stage_sum_ms"] = stage_sum
    layers["client.cpu_pct"] = base["client_cpu_pct"]
    layers["client.saturated"] = 0.0  # no load generator: the trainer is the work
    detail = {
        "untraced": base, "traced": traced_summary, "traced_epochs": n,
        "spans": len(spans),
    }
    return layers, plain["attempted"] + traced["attempted"], plain["failed"] + traced["failed"], detail


# ----------------------------------------------------------------------
# per-layer metric table
# ----------------------------------------------------------------------
#: Span-timed layers reported as mean self milliseconds per operation.
TIMED_LAYERS = (
    "http.handler", "http.decode", "http.encode", "circuits.parse",
    "data.fingerprint", "cache.lookup", "graph.build", "inputs.build",
    "inputs.merge", "executor.wait", "api.engine", "api.adapter",
    "model.encoder", "model.conv", "model.readout", "train.inputs",
    "train.forward", "train.backward", "train.optim",
)
#: nn kernels reported with time, call count and computed bytes.
KERNELS = (
    "linear", "relu", "leaky_relu", "concat", "gather_rows", "segment_sum",
    "segment_softmax", "scatter_rows",
)
PER_LAYER_UNITS = {
    **{f"{layer}_ms": "ms" for layer in TIMED_LAYERS},
    "http.transport_ms": "ms",
    "http.response_kb": "KiB",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "1/request",
    "executor.queue_wait_ms": "ms",
    "executor.batch_size": "count",
    **{
        metric: unit
        for kernel in KERNELS
        for metric, unit in (
            (f"nn.{kernel}_ms", "ms"),
            (f"nn.{kernel}_calls", "count"),
            (f"nn.{kernel}_mb", "MB_from_shapes"),
        )
    },
    "trace.stage_sum_ms": "ms",
    "trace.latency_ms": "ms",
    "trace.residual_ms": "ms",
    "trace.overhead_pct": "%",
    "client.cpu_pct": "%",
    "client.saturated": "flag",
}


def _layer_values(spans, per_op_ms: dict, n: int) -> dict:
    """Zero-filled per-layer table: self ms, kernel calls and bytes per op."""
    from perfbench.stats import SPAN_EXTRA, SPAN_NAME

    values = {metric: 0.0 for metric in PER_LAYER_UNITS}
    for layer in TIMED_LAYERS:
        values[f"{layer}_ms"] = per_op_ms.get(layer, 0.0)
    for kernel in KERNELS:
        name = f"nn.{kernel}"
        calls = [span[SPAN_EXTRA] for span in spans if span[SPAN_NAME] == name]
        values[f"{name}_ms"] = per_op_ms.get(name, 0.0)
        values[f"{name}_calls"] = len(calls) / n
        values[f"{name}_mb"] = sum(calls) / n / 1e6
    return values


def _reconcile(accounted_ms, traced_mean_ms, plain_p50_ms, traced_p50_ms) -> dict:
    """Traced stage sum against the untraced median it should explain."""
    return {
        "trace.latency_ms": traced_mean_ms,
        "trace.residual_ms": plain_p50_ms - accounted_ms,
        "trace.overhead_pct": 100.0 * (traced_p50_ms - plain_p50_ms) / plain_p50_ms,
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    threads = _prepare_process(run_dir)
    try:
        serve = args.workload.startswith("serve_")
        if args.trace:
            runner, units = (serve_layers if serve else train_layers), PER_LAYER_UNITS
        else:
            runner, units = (serve_end_to_end if serve else train_end_to_end), END_TO_END
        values, attempted, failed, detail = runner(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail.update(nproc=_nproc(), thread_env=threads, workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"detail": detail}))
    for name in units:
        print(f"{name:28s} {values[name]:14.4f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
