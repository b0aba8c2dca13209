"""CI smoke check for the multi-process serving pool.

Boots a 2-worker :class:`~repro.serve.pool.ServerPool` over a freshly
trained tiny model, replays a fixed number of canned requests from a few
client threads, and fails (non-zero exit) if **any** response is not 2xx
or any worker dies.  The parent's ``repro.obs`` metrics snapshot is
written as a JSONL artifact for upload.

The replay is bracketed by two ``/metrics?format=prom`` scrapes, each run
through the strict exposition validator.  A worker publishes its metrics
file once a second (and the one answering a scrape just before it
answers), so the second scrape waits, for at most 10 s, until every live
worker has published since the replay ended.  The smoke additionally
fails when that wait times out, when fleet counters are non-monotonic
across the scrapes, when the scraped
fleet totals disagree with the sum of the per-worker metrics files under
``pool.metrics_dir``, or when ``repro obs top --once --json`` does not
report exactly one row per live worker.  Every worker caches the
circuits it serves, so the smoke also fails unless the fleet's graph-cache
hits plus misses between the scrapes equal the requests sent and no
worker missed the replayed body more than once.  The pool starts from an
in-memory float64 predictor and serves at float32, so it also fails
unless every GNN parameter of ``pool.registry`` is a read-only float32
array, 4 bytes per parameter in all.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py \
        [--workers 2] [--requests 200] [--threads 4] \
        [--out obs-artifacts/serve-smoke-obs.jsonl]

Exit codes: 0 = all requests 2xx; 1 = request failures or a worker death;
2 = the pool failed to start.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import threading
import time
import urllib.request


def scrape_prom(url: str):
    """Scrape + strictly validate one Prometheus exposition; returns series."""
    from repro.obs.expo import CONTENT_TYPE, validate_exposition

    with urllib.request.urlopen(
        url + "/metrics?format=prom", timeout=30.0
    ) as response:
        content_type = response.headers.get("Content-Type")
        text = response.read().decode()
    if content_type != CONTENT_TYPE:
        raise AssertionError(
            f"prom scrape content-type {content_type!r} != {CONTENT_TYPE!r}"
        )
    _, series = validate_exposition(text)
    return series


def await_publish(pool, since: float, workers: int, timeout_s: float = 10.0):
    """Wait until every live worker has published its metrics file after
    *since* (wall clock); returns a failure string on timeout, else None."""
    from repro.obs.mpmetrics import load_snapshots

    deadline = time.monotonic() + timeout_s
    while True:
        snaps = load_snapshots(pool.metrics_dir)
        if len(snaps) == workers and all(
            snap.published_ts > since for snap in snaps
        ):
            return None
        if time.monotonic() > deadline:
            return (
                f"{len(snaps)} live metrics files, not {workers} published "
                f"within {timeout_s:g}s of the replay"
            )
        time.sleep(0.05)


def check_telemetry(
    pool, before: dict, after: dict, workers: int, requests: int
) -> list:
    """Fleet-telemetry acceptance checks; returns failure strings."""
    from repro.cli import main as cli_main
    from repro.obs.mpmetrics import load_snapshots, merge_snapshots

    problems: list[str] = []

    # counters must be monotonic across the two validated scrapes
    for key, value in before.items():
        name = key[0]
        if not name.endswith(("_total", "_bucket", "_count")):
            continue
        later = after.get(key)
        if later is not None and later < value:
            problems.append(
                f"counter went backwards: {key} {value} -> {later}"
            )
    if after.get(("repro_serve_requests_total", ()), 0) <= before.get(
        ("repro_serve_requests_total", ()), 0
    ):
        problems.append("repro_serve_requests_total did not advance")

    # fleet merged counters must equal the per-worker sum exactly
    snaps = load_snapshots(pool.metrics_dir)
    if len(snaps) != workers:
        problems.append(
            f"expected {workers} live metrics files, found {len(snaps)}"
        )
    merged = {
        row["name"]: row for row in merge_snapshots(snaps)
        if row["kind"] == "counter"
    }
    for name, row in merged.items():
        per_worker = sum(snap.value(name) for snap in snaps)
        if row["value"] != per_worker:
            problems.append(
                f"fleet merge mismatch: {name} merged={row['value']} "
                f"sum={per_worker}"
            )
    total = merged.get("serve.http_responses_total")
    if total is None or total["value"] <= 0:
        problems.append("no serve.http_responses_total in the fleet merge")

    # one body replayed: every lookup is a hit or a miss, and a worker
    # misses it at most once (the replay is the only traffic that builds
    # graphs, so each worker's file holds its replay lookups)
    def advanced(name):
        key = (f"repro_serve_graph_cache_{name}_total", ())
        return after.get(key, 0) - before.get(key, 0)

    hits, misses = advanced("hits"), advanced("misses")
    if hits + misses != requests:
        problems.append(
            f"graph cache counted {hits:g} hits + {misses:g} misses "
            f"for {requests} requests"
        )
    for snap in snaps:
        missed = snap.value("serve.graph_cache_misses_total")
        if missed > 1:
            problems.append(
                f"worker {snap.worker} missed the replayed body {missed:g} times"
            )

    # the dashboard must report exactly one row per live worker
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(
            ["obs", "top", "--dir", pool.metrics_dir, "--once", "--json"]
        )
    if code != 0:
        problems.append(f"obs top --once --json exited {code}")
    else:
        payload = json.loads(stdout.getvalue())
        rows = payload["workers"]
        if len(rows) != workers:
            problems.append(
                f"obs top reported {len(rows)} workers, expected {workers}"
            )
        if any(not row["alive"] for row in rows):
            problems.append("obs top reported a dead worker")
    return problems


def check_served_weights(pool, parameters: int) -> list:
    """The weights the workers inherit: every GNN parameter of the pool's
    registry a read-only float32 array, 4 bytes per parameter in all."""
    import numpy as np

    from repro.api.engine import _parameters

    params = [
        param
        for entry in pool.registry.entries()
        for param in _parameters(entry.model)
    ]
    problems = []
    loose = [
        param for param in params
        if param.data.dtype != np.float32 or param.data.flags.writeable
    ]
    if loose:
        problems.append(
            f"{len(loose)} of {len(params)} served parameters are not "
            "read-only float32 arrays"
        )
    held = sum(param.data.nbytes for param in params)
    if held != 4 * parameters:
        problems.append(
            f"served weights hold {held} bytes for {parameters} "
            "parameters, want 4 per parameter (float32)"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--out", default="serve-smoke-obs.jsonl",
                        help="obs JSONL artifact path")
    args = parser.parse_args(argv)

    from repro import obs
    from repro.circuits.spice import write_spice
    from repro.data import build_bundle
    from repro.models import TargetPredictor, TrainConfig
    from repro.serve.pool import PoolConfig, ServerPool

    obs.enable()
    with obs.span("serve_smoke.train"):
        bundle = build_bundle(seed=0, scale=0.05)
        predictor = TargetPredictor(
            "paragraph",
            "CAP",
            TrainConfig(epochs=2, embed_dim=8, num_layers=2, run_seed=0),
        ).fit(bundle)
    body = json.dumps(
        {
            "netlist": write_spice(bundle.records("test")[0].circuit),
            "model": "CAP",
        }
    ).encode()

    config = PoolConfig(workers=args.workers, port=0, drain_timeout_s=10.0)
    try:
        pool = ServerPool({"CAP": predictor}, config=config).start()
    except Exception as error:  # noqa: BLE001 - smoke boundary
        print(f"serve-smoke: pool failed to start: {error!r}")
        return 2

    failures: list = check_served_weights(
        pool, predictor.model.num_parameters()
    )
    statuses: dict = {}
    lock = threading.Lock()
    remaining = list(range(args.requests))

    def client():
        while True:
            with lock:
                if not remaining:
                    return
                remaining.pop()
            try:
                request = urllib.request.Request(
                    pool.url + "/predict",
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30.0) as response:
                    response.read()
                    status = response.status
            except urllib.error.HTTPError as error:
                status = error.code
            except Exception as error:  # noqa: BLE001 - recorded below
                with lock:
                    failures.append(repr(error))
                continue
            with lock:
                statuses[status] = statuses.get(status, 0) + 1
                if not 200 <= status < 300:
                    failures.append(status)

    try:
        with obs.span("serve_smoke.scrape_before"):
            try:
                before = scrape_prom(pool.url)
            except Exception as error:  # noqa: BLE001 - recorded below
                failures.append(f"first prom scrape failed: {error!r}")
                before = {}
        with obs.span("serve_smoke.replay"):
            threads = [
                threading.Thread(target=client) for _ in range(args.threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            replayed = time.time()
        with obs.span("serve_smoke.scrape_after"):
            try:
                late = await_publish(pool, replayed, args.workers)
                if late:
                    failures.append(late)
                after = scrape_prom(pool.url)
                failures.extend(
                    check_telemetry(
                        pool, before, after, args.workers, args.requests
                    )
                )
            except Exception as error:  # noqa: BLE001 - recorded below
                failures.append(f"telemetry checks failed: {error!r}")
        dead = pool.poll(respawn=False)
        if dead:
            failures.append(f"workers died: {dead}")
    finally:
        pool.stop()
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        obs.export_jsonl(args.out)
        obs.disable()

    total = sum(statuses.values())
    print(
        f"serve-smoke: {total}/{args.requests} responses "
        f"({args.workers} workers), statuses={statuses}, "
        f"failures={len(failures)}, obs -> {args.out}"
    )
    if failures or total != args.requests:
        for failure in failures[:10]:
            print(f"  failure: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
