"""Command-line interface.

Subcommands::

    python -m repro dataset    --scale 0.2 --seed 0
        Print the Table IV distribution of a generated dataset.

    python -m repro train      --target CAP --conv paragraph --epochs 60
                               --scale 0.2 --seed 0 --out cap_model.npz
                               [--metrics run.jsonl] [--checkpoint-dir ckpts]
                               [--checkpoint-every 50] [--resume-from ckpt.npz]
                               [--max-retries 2] [--patience 20]
        Train one predictor on a generated dataset and save it; the
        optional runtime flags enable metrics logging, checkpoint/resume,
        divergence retries and early stopping.

    python -m repro train-all  --targets CAP,SA,RES --epochs 60
                               --out-dir models/ [--workers 4]
        Train one predictor per target (all paper targets by default) with
        shared merged-input caching (or a process pool) and save the suite.

    python -m repro predict    --model cap_model.npz --netlist in.sp
                               [--netlist more.sp ...] [--json]
                               [--annotate out.sp] [--precision float32]
        Parse SPICE netlists, predict every target the model offers for each
        (batched through :class:`repro.api.Engine`), print a report or a
        JSON dump; with ``--annotate`` also write the parasitic-annotated
        netlist (CAP models, single netlist only).  ``--model`` accepts a
        single ``.npz``, a multi-target directory, or an ensemble directory.

    python -m repro serve      --models models/ [--host H] [--port P]
                               [--procs 1] [--max-batch 16]
                               [--queue-depth 128] [--cache-size 256]
                               [--timeout-s T] [--precision float32]
                               [--metrics-dir DIR] [--access-log FILE]
        Discover saved models under ``--models`` and answer predictions over
        stdlib JSON/HTTP from a pool of ``--procs`` forked worker processes
        behind one port: ``POST /predict``, ``GET /healthz``,
        ``GET /metrics``.  Each worker answers one group of at most
        ``--max-batch`` requests at a time; ``--queue-depth`` bounds the
        requests it holds (429 beyond), and ``--timeout-s`` fails one that
        waited longer (504).  SIGTERM drains the workers and exits 0;
        SIGHUP reloads the artifacts that changed on disk.  A size below 1
        exits 2 before any worker starts.

    python -m repro experiment {table4,fig5,fig6,fig7,fig8,table5,layers,ingredients}
        Run one paper experiment and print its table (honours
        PARAGRAPH_BENCH_SCALE).

    python -m repro obs report trace.json
        Print the per-stage time/memory summary of a trace written with
        ``--trace`` or ``--obs-jsonl``.

    python -m repro check [paths...] [--rules r1,r2] [--format json]
                          [--verbose] [--list-rules]
        Run the repo-aware static checks: the four AST lint rules over
        ``src/repro``, or over the given files.  Exit 0 when clean, 1
        when there are new findings (a pragma that suppresses nothing is
        one), 2 on usage or configuration errors.

Every subcommand additionally accepts ``--trace out.json`` (write a Chrome
``trace_event`` file loadable in Perfetto / chrome://tracing) and
``--obs-jsonl out.jsonl`` (append span/metric events as JSON lines); both
flags may be given before or after the subcommand name.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.units import format_eng


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import ExperimentConfig, experiment_table4, load_bundle

    config = ExperimentConfig(dataset_seed=args.seed, dataset_scale=args.scale)
    print(experiment_table4(config, load_bundle(config)).render())
    return 0


def _runtime_from_args(args: argparse.Namespace):
    from repro.flows.runtime import RuntimeConfig

    return RuntimeConfig(
        metrics_jsonl=getattr(args, "metrics", None),
        progress_every=getattr(args, "progress_every", 0),
        max_retries=getattr(args, "max_retries", 0),
        patience=getattr(args, "patience", 0),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        checkpoint_every=getattr(args, "checkpoint_every", 0),
    )


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.api import evaluate
    from repro.data import build_bundle
    from repro.flows import TrainPlan, train
    from repro.models import TrainConfig

    print(f"building dataset (seed={args.seed}, scale={args.scale})...")
    bundle = build_bundle(seed=args.seed, scale=args.scale)
    config = TrainConfig(
        epochs=args.epochs,
        run_seed=args.seed,
        max_v=args.max_v,
    )
    plan = TrainPlan(
        targets=(args.target,),
        conv=args.conv,
        config=config,
        runtime=_runtime_from_args(args),
        resume_from=args.resume_from,
    )
    print(f"training {args.conv}/{args.target} for {args.epochs} epochs...")
    predictor = train(bundle, plan).model.predictor(args.target)
    metrics = evaluate(predictor, bundle.records("test"))
    print(
        f"held-out: R2={metrics['r2']:.3f} MAE={metrics['mae']:.3e} "
        f"MAPE={100 * metrics['mape']:.1f}%"
    )
    predictor.save(args.out)
    print(f"saved model to {args.out}")
    return 0


def _cmd_train_all(args: argparse.Namespace) -> int:
    from repro.api import evaluate
    from repro.data import ALL_TARGETS, build_bundle
    from repro.flows import MultiTargetModel, TrainPlan, train
    from repro.models import TrainConfig

    if args.targets.strip().lower() == "all":
        names = [t.name for t in ALL_TARGETS]
    else:
        names = [name.strip() for name in args.targets.split(",") if name.strip()]
    print(f"building dataset (seed={args.seed}, scale={args.scale})...")
    bundle = build_bundle(seed=args.seed, scale=args.scale)
    config = TrainConfig(epochs=args.epochs, run_seed=args.seed)
    plan = TrainPlan(
        targets=tuple(names),
        conv=args.conv,
        config=config,
        trunk=args.trunk,
        runtime=_runtime_from_args(args),
        parallel_workers=args.workers,
    )
    if plan.trunk == "shared":
        mode = "shared trunk, one pass for all heads"
    elif args.workers > 1:
        mode = f"{args.workers} worker processes"
    else:
        mode = "shared-input cache"
    print(f"training {len(names)} targets ({mode})...")
    model = train(bundle, plan).model
    if plan.trunk == "shared":
        # one predictor answering for every target, saved once
        model = MultiTargetModel({name: model for name in model.target_names})
    for name, predictor in model.predictors.items():
        metrics = evaluate(predictor, bundle.records("test"), name)
        print(f"  {name}: R2={metrics['r2']:.3f}")
    model.save_dir(args.out_dir)
    print(f"saved {len(model.predictors)} models to {args.out_dir}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import json

    from repro.api.engine import coerce_request, create_engine
    from repro.circuits import write_spice
    from repro.nn import precision
    from repro.serve.registry import ModelRegistry, _entry_name
    from repro.sim import annotated_netlist

    netlists = list(args.netlist)
    if args.annotate and len(netlists) > 1:
        print("--annotate supports exactly one --netlist", file=sys.stderr)
        return 2
    registry = ModelRegistry()
    with precision.compute_dtype(args.precision):
        registry.load(_entry_name(os.path.basename(args.model)), args.model)
    with create_engine(registry, dtype=args.precision) as engine:
        if args.annotate and "CAP" not in engine.targets_of():
            print("--annotate requires a CAP model", file=sys.stderr)
            return 2
        requests = [coerce_request(path) for path in netlists]
        results = engine.predict_batch(requests)
        if args.json:
            json.dump(
                [result.to_json_dict() for result in results],
                sys.stdout,
                indent=2,
            )
            print()
        else:
            for path, result in zip(netlists, results):
                for target in sorted(result.targets):
                    prediction = result.targets[target]
                    named = prediction.named
                    print(f"{target} predictions for {path}:")
                    for name in sorted(named):
                        print(f"  {name:24s} {format_eng(named[name], prediction.unit)}")
        if args.annotate:
            annotated = annotated_netlist(
                requests[0].resolve_circuit(), results[0].named("CAP")
            )
            with open(args.annotate, "w") as handle:
                write_spice(annotated, handle)
            print(f"wrote annotated netlist to {args.annotate}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: a pool of ``--procs`` forked workers on one port."""
    from repro.errors import ServeError
    from repro.serve.pool import PoolConfig, ServerPool

    try:
        config = PoolConfig(
            workers=args.procs,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            max_batch=args.max_batch,
            queue_depth=args.queue_depth,
            timeout_s=args.timeout_s,
            dtype=args.precision,
            quiet=not args.verbose,
            metrics_dir=args.metrics_dir,
            access_log=args.access_log,
        )
    except (ServeError, ValueError) as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    with ServerPool(args.models, config=config) as pool:
        names = ", ".join(pool.registry.names())
        print(
            f"serving {len(pool.registry)} model(s) [{names}] at {pool.url} "
            f"across {args.procs} worker process(es)"
        )
        print("endpoints: POST /predict, GET /healthz, GET /metrics "
              "(?format=prom for Prometheus)")
        print(f"fleet metrics: repro obs top --dir {pool.metrics_dir}")
        print("signals: SIGHUP reloads changed artifacts, SIGTERM drains",
              flush=True)
        try:
            pool.run_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
    return 0


def _obs_top_rows(snapshots, previous: dict | None, interval_s: float):
    """Per-worker dashboard rows from fleet snapshots.

    *previous* maps pid -> last-seen ``serve.requests_total`` for rate
    deltas; None (first poll / --once) derives rps from the worker's
    uptime instead.
    """
    rows = []
    for snap in snapshots:
        requests = snap.value("serve.requests_total")
        if previous is not None and snap.pid in previous and interval_s > 0:
            rps = max(0.0, requests - previous[snap.pid]) / interval_s
        else:
            uptime = snap.value("proc.uptime_s")
            rps = requests / uptime if uptime > 0 else 0.0
        latency = snap.row("serve.request_seconds", "histogram") or {}
        quantiles = {}
        for label in ("p50", "p95", "p99"):
            seconds = latency.get(label)
            quantiles[f"{label}_ms"] = (
                None if seconds is None else round(seconds * 1e3, 3)
            )
        hits = snap.value("serve.graph_cache_hits_total")
        misses = snap.value("serve.graph_cache_misses_total")
        lookups = hits + misses
        rows.append({
            "worker": snap.worker,
            "pid": snap.pid,
            "generation": snap.generation,
            "alive": snap.alive,
            "requests": requests,
            "rps": round(rps, 2),
            **quantiles,
            "cache_hit_pct": (
                round(100.0 * hits / lookups, 1) if lookups else None
            ),
            "rss_kb": int(snap.value("proc.rss_kb")),
            "queue_depth": int(snap.value("serve.queue_depth")),
        })
    return rows


def _render_top_table(rows) -> str:
    from repro.analysis.tables import render_table

    def fmt(value):
        return "-" if value is None else value

    body = [
        [row["worker"], row["pid"], row["generation"],
         "up" if row["alive"] else "dead", int(row["requests"]), row["rps"],
         fmt(row["p50_ms"]), fmt(row["p95_ms"]), fmt(row["p99_ms"]),
         fmt(row["cache_hit_pct"]), row["rss_kb"], row["queue_depth"]]
        for row in rows
    ]
    return render_table(
        ["worker", "pid", "gen", "state", "reqs", "rps", "p50ms", "p95ms",
         "p99ms", "hit%", "rss_kb", "queue"],
        body,
        title="repro obs top",
    )


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """Live per-worker dashboard over the pool's mmap metrics files."""
    import json as json_module
    import time

    from repro.obs.mpmetrics import load_snapshots, merge_snapshots

    snapshots = load_snapshots(args.dir)
    if args.once:
        rows = _obs_top_rows(snapshots, None, 0.0)
        if args.json:
            merged = merge_snapshots(snapshots)
            print(json_module.dumps(
                {"dir": args.dir, "workers": rows, "fleet": merged},
                default=str,
            ))
        else:
            if not rows:
                print(f"no live worker metrics files under {args.dir}",
                      file=sys.stderr)
                return 2
            print(_render_top_table(rows))
        return 0
    previous: dict | None = None
    try:
        while True:
            rows = _obs_top_rows(snapshots, previous, args.interval)
            sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
            if rows:
                print(_render_top_table(rows))
            else:
                print(f"no live worker metrics files under {args.dir}")
            print(f"polling {args.dir} every {args.interval:g}s "
                  "(ctrl-c to quit)")
            sys.stdout.flush()
            previous = {
                snap.pid: snap.value("serve.requests_total")
                for snap in snapshots
            }
            time.sleep(args.interval)
            snapshots = load_snapshots(args.dir)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import load_events, render_summary

    spans, metrics = load_events(args.trace_file)
    if not spans and not metrics:
        print(f"no observability events in {args.trace_file}", file=sys.stderr)
        return 2
    try:
        print(render_summary(spans, metrics))
    except BrokenPipeError:  # e.g. piped into head
        sys.stderr.close()
        return 0
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.errors import StaticCheckError
    from repro.staticcheck import render_json, render_text, run_lint

    if args.list_rules:
        from repro.staticcheck import all_rules

        for rule in all_rules():
            print(f"{rule.name:18s} [{rule.severity.value}] {rule.description}")
        return 0

    selected = (
        [name.strip() for name in args.rules.split(",") if name.strip()]
        if args.rules
        else None
    )
    try:
        result = run_lint(paths=args.paths or None, rule_names=selected)
    except StaticCheckError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok() else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis import experiments as exp

    config = exp.ExperimentConfig.from_env()
    bundle = exp.load_bundle(config)
    runners = {
        "table4": lambda: exp.experiment_table4(config, bundle),
        "fig5": lambda: exp.experiment_fig5(config, bundle),
        "fig6": lambda: exp.experiment_fig6(config, bundle),
        "fig7": lambda: exp.experiment_fig7(config, bundle),
        "fig8": lambda: exp.experiment_fig8(config, bundle),
        "table5": lambda: exp.experiment_table5(config, bundle),
        "layers": lambda: exp.experiment_layer_sweep(config, bundle),
        "ingredients": lambda: exp.experiment_ingredients(config, bundle),
    }
    print(runners[args.name]().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ParaGraph reproduction command line"
    )
    parser.add_argument("--trace", default=None, metavar="OUT.json",
                        help="write a Chrome trace_event file of the run")
    parser.add_argument("--obs-jsonl", default=None, metavar="OUT.jsonl",
                        help="append span/metric events to this JSONL file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_args(sub_parser: argparse.ArgumentParser) -> None:
        # SUPPRESS: without it the subparser's default (None) would
        # overwrite a value parsed from before the subcommand name.
        sub_parser.add_argument("--trace", default=argparse.SUPPRESS,
                                metavar="OUT.json",
                                help="write a Chrome trace_event file")
        sub_parser.add_argument("--obs-jsonl", default=argparse.SUPPRESS,
                                metavar="OUT.jsonl",
                                help="append span/metric events as JSONL")

    p_dataset = sub.add_parser("dataset", help="print Table IV for a generated dataset")
    p_dataset.add_argument("--scale", type=float, default=0.2)
    p_dataset.add_argument("--seed", type=int, default=0)
    add_obs_args(p_dataset)
    p_dataset.set_defaults(func=_cmd_dataset)

    def add_runtime_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--metrics", default=None,
                                help="append per-epoch metrics to this JSONL file")
        sub_parser.add_argument("--progress-every", type=int, default=0,
                                help="print a progress line every N epochs")
        sub_parser.add_argument("--max-retries", type=int, default=0,
                                help="re-seeded retries after NaN/Inf divergence")
        sub_parser.add_argument("--patience", type=int, default=0,
                                help="early-stop after N epochs without improvement")
        sub_parser.add_argument("--checkpoint-dir", default=None,
                                help="write resumable checkpoints here")
        sub_parser.add_argument("--checkpoint-every", type=int, default=0,
                                help="checkpoint every N epochs")

    p_train = sub.add_parser("train", help="train and save a predictor")
    p_train.add_argument("--target", default="CAP")
    p_train.add_argument("--conv", default="paragraph",
                         choices=["paragraph", "sage", "rgcn", "gat", "gcn"])
    p_train.add_argument("--epochs", type=int, default=60)
    p_train.add_argument("--scale", type=float, default=0.2)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--max-v", type=float, default=None,
                         help="training clamp in farads (CAP models)")
    p_train.add_argument("--out", default="model.npz")
    p_train.add_argument("--resume-from", default=None,
                         help="resume training from this checkpoint .npz")
    add_runtime_args(p_train)
    add_obs_args(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_train_all = sub.add_parser(
        "train-all", help="train one predictor per target and save the suite"
    )
    p_train_all.add_argument("--targets", default="all",
                             help='comma-separated target names, or "all"')
    p_train_all.add_argument("--conv", default="paragraph",
                             choices=["paragraph", "sage", "rgcn", "gat", "gcn"])
    p_train_all.add_argument("--epochs", type=int, default=60)
    p_train_all.add_argument("--scale", type=float, default=0.2)
    p_train_all.add_argument("--seed", type=int, default=0)
    p_train_all.add_argument("--workers", type=int, default=0,
                             help="train targets in N parallel processes (>= 2)")
    p_train_all.add_argument("--trunk", default="per_target",
                             choices=["per_target", "shared"],
                             help="independent model per target, or one shared "
                                  "trunk with per-target readout heads")
    p_train_all.add_argument("--out-dir", default="models",
                             help="directory for the per-target .npz files "
                                  "(or multitask.npz with --trunk shared)")
    add_runtime_args(p_train_all)
    add_obs_args(p_train_all)
    p_train_all.set_defaults(func=_cmd_train_all)

    p_predict = sub.add_parser("predict", help="predict targets for SPICE netlists")
    p_predict.add_argument("--model", required=True,
                           help="saved model: .npz file, multi-target dir, "
                                "or ensemble dir")
    p_predict.add_argument("--netlist", required=True, action="append",
                           help="SPICE netlist path (repeatable for a batch)")
    p_predict.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON instead of a report")
    p_predict.add_argument("--annotate", default=None,
                           help="write a parasitic-annotated netlist here")
    p_predict.add_argument("--precision", default="float32",
                           choices=["float32", "float64"],
                           help="serving compute precision (default float32; "
                                "float64 matches training bit-for-bit)")
    add_obs_args(p_predict)
    p_predict.set_defaults(func=_cmd_predict)

    p_serve = sub.add_parser(
        "serve", help="serve saved models over JSON/HTTP (stdlib only)"
    )
    p_serve.add_argument("--models", required=True,
                         help="saved model artifact or directory of artifacts")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="TCP port (0 binds an ephemeral port)")
    p_serve.add_argument("--procs", type=int, default=1,
                         help="worker processes forked behind one port")
    p_serve.add_argument("--max-batch", type=int, default=16,
                         help="max requests merged into one forward pass")
    p_serve.add_argument("--queue-depth", type=int, default=128,
                         help="requests held per process before 429 "
                              "backpressure")
    p_serve.add_argument("--cache-size", type=int, default=256,
                         help="graph/feature cache entries")
    p_serve.add_argument("--timeout-s", type=float, default=None,
                         help="per-request deadline for the wait before "
                              "it runs (504 after)")
    p_serve.add_argument("--precision", default="float32",
                         choices=["float32", "float64"],
                         help="serving compute precision (default float32; "
                              "float64 matches training bit-for-bit)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")
    p_serve.add_argument("--metrics-dir", default=None, metavar="DIR",
                         help="directory for per-worker mmap metrics files "
                              "(default: a temporary one, removed on exit)")
    p_serve.add_argument("--access-log", default=None, metavar="FILE",
                         help="append one JSON line per request here "
                              "(tail-sampled span detail on slow/error)")
    add_obs_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_exp = sub.add_parser("experiment", help="run one paper experiment")
    p_exp.add_argument(
        "name",
        choices=["table4", "fig5", "fig6", "fig7", "fig8", "table5",
                 "layers", "ingredients"],
    )
    add_obs_args(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_check = sub.add_parser(
        "check", help="run the static analysis lint rules"
    )
    p_check.add_argument("paths", nargs="*",
                         help="specific files to lint (default: all of "
                              "src/repro)")
    p_check.add_argument("--rules", default=None, metavar="R1,R2",
                         help="comma-separated rule names; see --list-rules")
    p_check.add_argument("--format", choices=["text", "json"],
                         default="text")
    p_check.add_argument("--verbose", action="store_true",
                         help="also list pragma-suppressed findings")
    p_check.add_argument("--list-rules", action="store_true",
                         help="print the rule catalogue and exit")
    p_check.set_defaults(func=_cmd_check)

    p_obs = sub.add_parser("obs", help="inspect observability output")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_report = obs_sub.add_parser(
        "report", help="per-stage summary of a trace/JSONL file"
    )
    p_report.add_argument("trace_file",
                          help="file written by --trace or --obs-jsonl")
    p_report.set_defaults(func=_cmd_obs)
    p_top = obs_sub.add_parser(
        "top", help="live per-worker serving dashboard (fleet metrics)"
    )
    p_top.add_argument("--dir", required=True,
                       help="pool metrics directory (printed by "
                            "`repro serve`)")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="poll interval in seconds")
    p_top.add_argument("--once", action="store_true",
                       help="print one snapshot and exit")
    p_top.add_argument("--json", action="store_true",
                       help="with --once: machine-readable JSON")
    p_top.set_defaults(func=_cmd_obs_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace", None)
    jsonl_out = getattr(args, "obs_jsonl", None)
    if not (trace_out or jsonl_out):
        return args.func(args)

    from repro import obs

    # When an outer controller (e.g. the pytest session hook) already owns
    # the collection lifecycle, export but leave its state untouched.
    nested = obs.is_enabled()
    if not nested:
        obs.enable(memory=True)
    try:
        return args.func(args)
    finally:
        if not nested:
            obs.disable()
        if jsonl_out:
            obs.export_jsonl(jsonl_out)
            print(f"wrote observability events to {jsonl_out}", file=sys.stderr)
        if trace_out:
            obs.export_chrome_trace(trace_out)
            print(f"wrote Chrome trace to {trace_out}", file=sys.stderr)
        if not nested:
            obs.reset()  # don't leak spans into a later in-process run


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
