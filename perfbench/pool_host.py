#!/usr/bin/env python3
"""Host the serve workloads' ServerPool in a process of its own.

    python3 perfbench/pool_host.py --models DIR --cache-size N --metrics-dir D [--spans-dir S]

Loads the ``MultiTargetModel`` saved in DIR, starts a one-worker
:class:`~repro.serve.pool.ServerPool` and prints ``ready <port> <worker
pid>``.  It serves until its standard input closes — including when the
benchmark dies — then stops the pool and exits.  A freshly started
process forks the worker, as ``repro serve`` would, so the worker does not
inherit the benchmark's heap.

With ``--spans-dir`` the layer shims of ``perfbench/tracing.py`` are
installed before the fork; the worker writes its spans into that
directory when it drains.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--models", required=True)
    parser.add_argument("--cache-size", type=int, required=True)
    parser.add_argument("--metrics-dir", required=True)
    parser.add_argument("--spans-dir")
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from repro.flows import MultiTargetModel
    from repro.serve.pool import PoolConfig, ServerPool

    model = MultiTargetModel.load_dir(args.models)
    if args.spans_dir:
        from perfbench import tracing

        recorder = tracing.Recorder()
        recorder.dump_dir = args.spans_dir
        tracing.install(recorder)  # this process only serves; never restored
    config = PoolConfig(
        workers=1, cache_size=args.cache_size, metrics_dir=args.metrics_dir
    )
    with ServerPool(model, config=config) as pool:
        (worker,) = pool.pids()
        print(f"ready {pool.port} {worker}", flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main())
