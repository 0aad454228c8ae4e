"""Command-line interface.

    python -m repro list
    python -m repro run dijkstra --cores 64 --memory shared --scale small
    python -m repro run quicksort --telemetry --telemetry-out /tmp/obs
    python -m repro obs summarize /tmp/obs
    python -m repro sweep fig8 --sizes 1,8,64 --scale tiny
    python -m repro sweep examples/sweeps/mesh_family.json --jobs 4
    python -m repro policies quicksort --cores 64
    python -m repro fuzz --cases 25 --seed 0
    python -m repro serve --port 8123 --workers 2 --store /tmp/repro-cache
    python -m repro info

``run`` simulates one benchmark on one architecture and prints the
headline numbers; ``sweep`` regenerates a figure/table of the paper's
evaluation — or, given a JSON sweep-spec file, runs a design-space
exploration through the service job queue and prints the Pareto
frontier (see docs/dse.md); ``policies`` compares all sync policies on
one benchmark;
``fuzz`` differentially tests the serial and sharded backends against
each other (see docs/testing.md); ``obs summarize`` renders the metrics
a ``--telemetry-out`` run wrote (see docs/observability.md); ``serve``
runs the simulation service — an HTTP/JSON API with a job queue and a
content-hash result cache (see docs/service.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional, Sequence

from . import __version__
from .arch import (
    clustered_dist,
    dist_mesh,
    numa_mesh,
    polymorphic_dist,
    polymorphic_shared,
    shared_mesh,
)
from .core.errors import SimConfigError
from .core.sync import POLICIES
from .runtime.dispatch import DISPATCH_POLICIES
from .workloads import BENCHMARKS, SCALE_PARAMS

#: Figure/table sweeps available to the ``sweep`` subcommand.
SWEEPS = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
          "fig12", "fig13")


def _sizes(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for shell-completion tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SiMany: a very fast simulator for exploring the "
                    "many-core future (IPDPS 2011 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available benchmarks and scales")
    sub.add_parser("info", help="show the architecture presets and knobs")

    run = sub.add_parser("run", help="simulate one benchmark")
    run.add_argument("benchmark", choices=BENCHMARKS, nargs="?",
                     help="benchmark name (optional with --resume: the "
                          "snapshot already carries the workload)")
    run.add_argument("--cores", type=int, default=64)
    run.add_argument("--memory",
                     choices=("shared", "distributed", "numa"),
                     default="shared")
    run.add_argument("--arch", choices=("mesh", "clustered", "polymorphic"),
                     default="mesh")
    run.add_argument("--clusters", type=int, default=4)
    run.add_argument("--scale", choices=tuple(SCALE_PARAMS), default="small")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--drift", type=float, default=100.0,
                     help="maximum local drift T (cycles)")
    run.add_argument("--sync", default="spatial", choices=tuple(POLICIES))
    run.add_argument("--dispatch", default="occupancy",
                     choices=DISPATCH_POLICIES)
    run.add_argument("--baseline", action="store_true",
                     help="also run 1 core and report the speedup")
    run.add_argument("--backend", choices=("serial", "sharded"),
                     default="serial",
                     help="execution backend: serial (default) or one "
                          "worker process per shard")
    run.add_argument("--shards", type=int, default=0,
                     help="partition the mesh into N contiguous shards "
                          "(fences dispatch/steal to stay in-shard; "
                          "required for --backend sharded)")
    run.add_argument("--sanitize", action="store_true",
                     help="enable the runtime invariant sanitizer (drift "
                          "bound, causal delivery, publish monotonicity; "
                          "~2x slower)")
    run.add_argument("--telemetry", nargs="?", const="all", default=None,
                     metavar="PARTS",
                     help="enable observability (repro.obs): 'all' or a "
                          "comma list of counters,timeline,profile")
    run.add_argument("--telemetry-out", default=None, metavar="DIR",
                     help="write metrics.json / timeline.json under DIR "
                          "(implies --telemetry all)")
    run.add_argument("--checkpoint-every", type=float, default=None,
                     metavar="N",
                     help="snapshot the run every N virtual-time cycles "
                          "(either backend); requires --checkpoint")
    run.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="snapshot file, atomically overwritten at each "
                          "boundary (see docs/checkpoint.md)")
    run.add_argument("--resume", default=None, metavar="PATH",
                     help="restore a snapshot by verified replay and run "
                          "to completion; architecture/workload flags are "
                          "taken from the snapshot, not the command line")

    obs = sub.add_parser("obs", help="inspect telemetry a run wrote")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summ = obs_sub.add_parser(
        "summarize", help="render top counters, histograms and the "
                          "profile from a metrics.json")
    summ.add_argument("path",
                      help="metrics.json or a --telemetry-out directory")
    summ.add_argument("--top", type=int, default=12,
                      help="how many counters to show (default 12)")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential serial-vs-sharded conformance fuzzing")
    fuzz.add_argument("--cases", type=int, default=25,
                      help="number of generated cases (default 25)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="base seed; case i uses seed*1000003 + i")
    fuzz.add_argument("--case", default=None, metavar="JSON",
                      help="re-run one exact case from its JSON reproducer "
                           "(as printed on failure)")
    fuzz.add_argument("--no-sanitize", action="store_true",
                      help="digest/stat diffing only, runtime checks off")
    fuzz.add_argument("--snapshot", action="store_true",
                      help="snapshot mode: per case, pin run(0..end) == "
                           "run(0..k); restore; run(k..end) at a random "
                           "boundary k instead of serial-vs-sharded")

    sweep = sub.add_parser(
        "sweep", help="regenerate a paper figure/table, or run a "
                      "design-space exploration from a sweep-spec file")
    sweep.add_argument("figure", metavar="figure|specfile",
                       help=f"one of {', '.join(SWEEPS)}, or the path of "
                            "a JSON sweep spec (see docs/dse.md)")
    sweep.add_argument("--sizes", type=_sizes, default=(1, 8, 64))
    sweep.add_argument("--scale", choices=tuple(SCALE_PARAMS),
                       default="small")
    sweep.add_argument("--seeds", type=_sizes, default=(0,))
    # Design-space exploration options (sweep-spec mode only).
    sweep.add_argument("--jobs", type=int, default=2, metavar="N",
                       help="concurrent simulations, each in a process "
                            "of its own (default 2)")
    sweep.add_argument("--backend", choices=("serial", "sharded"),
                       default=None,
                       help="override the base arch backend for every "
                            "cell (sharded requires --shards)")
    sweep.add_argument("--shards", type=int, default=0,
                       help="shard count applied with --backend sharded")
    sweep.add_argument("--store", default=".repro-service", metavar="DIR",
                       help="content-hash result cache shared with the "
                            "service (default .repro-service)")
    sweep.add_argument("--fresh", action="store_true",
                       help="evict this sweep's cached cell results "
                            "first and re-simulate everything (the "
                            "default resumes: cells are content-"
                            "addressed, so only missing ones simulate)")
    sweep.add_argument("--timeout", type=float, default=300.0,
                       metavar="SECONDS",
                       help="per-cell wall-clock limit (default 300)")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help="write the deterministic result frame as "
                            "JSON")
    sweep.add_argument("--csv", default=None, metavar="PATH",
                       help="write the flat per-cell CSV export")

    serve = sub.add_parser(
        "serve", help="run the simulation service (HTTP JSON API with a "
                      "job queue and content-hash result cache)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8123,
                       help="bind port (default 8123; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent simulations, each in a process "
                            "of its own (default 2)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max queued jobs before submissions get a "
                            "503 (default 64)")
    serve.add_argument("--store", default=".repro-service", metavar="DIR",
                       help="result-cache directory (default "
                            ".repro-service)")
    serve.add_argument("--job-timeout", type=float, default=300.0,
                       metavar="SECONDS",
                       help="per-job wall-clock limit (default 300)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    pol = sub.add_parser("policies",
                         help="compare sync policies on one benchmark")
    pol.add_argument("benchmark", choices=BENCHMARKS)
    pol.add_argument("--cores", type=int, default=64)
    pol.add_argument("--scale", choices=tuple(SCALE_PARAMS), default="small")
    pol.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_list(out) -> int:
    print("benchmarks:", file=out)
    for name in BENCHMARKS:
        params = SCALE_PARAMS["small"][name]
        print(f"  {name:22s} small-scale params: {params}", file=out)
    print("scales:", ", ".join(SCALE_PARAMS), file=out)
    return 0


def _cmd_info(out) -> int:
    from .arch import ArchConfig
    from .service.hashing import PRESETS

    cfg = ArchConfig()
    print("architecture presets:", ", ".join(PRESETS), file=out)
    print("paper reference parameters:", file=out)
    print(f"  drift bound T        : {cfg.drift_bound}", file=out)
    print(f"  shared bank latency  : {cfg.bank_latency} cycles", file=out)
    print(f"  L2 latency           : {cfg.l2_latency} cycles", file=out)
    print(f"  link latency/bw      : {cfg.link_latency} cy / "
          f"{cfg.link_bandwidth} B/cy", file=out)
    print(f"  task start / switch  : {cfg.task_start_cycles} / "
          f"{cfg.context_switch_cycles} cycles", file=out)
    print(f"  branch predictor     : {cfg.branch_accuracy:.0%}, "
          f"{cfg.branch_penalty}-cycle mispredict", file=out)
    return 0


def _make_config(args):
    if args.arch == "clustered":
        cfg = clustered_dist(args.cores, args.clusters)
        if args.memory == "shared":
            raise SystemExit("clustered preset uses distributed memory")
    elif args.arch == "polymorphic":
        if args.memory == "numa":
            raise SystemExit("polymorphic preset supports shared/distributed")
        cfg = (polymorphic_shared(args.cores) if args.memory == "shared"
               else polymorphic_dist(args.cores))
    else:
        if args.memory == "shared":
            cfg = shared_mesh(args.cores)
        elif args.memory == "numa":
            cfg = numa_mesh(args.cores)
        else:
            cfg = dist_mesh(args.cores)
    if args.backend == "sharded" and args.shards < 1:
        raise SystemExit("--backend sharded requires --shards N "
                         "(e.g. --shards 4)")
    overrides = {}
    if getattr(args, "sanitize", False):
        overrides["sanitize"] = True
    telemetry = getattr(args, "telemetry", None)
    if telemetry is None and getattr(args, "telemetry_out", None):
        telemetry = "all"
    if telemetry:
        from .obs import parse_spec

        try:
            parts = parse_spec(telemetry)
        except ValueError as exc:
            raise SystemExit(str(exc))
        overrides["telemetry"] = telemetry
        if "timeline" in parts:
            # Machines only record spans when they collect traces.
            overrides["collect_trace"] = True
    return dataclasses.replace(
        cfg, drift_bound=args.drift, sync=args.sync, dispatch=args.dispatch,
        seed=args.seed, backend=args.backend, shards=args.shards,
        **overrides,
    )


def _cmd_run(args, out) -> int:
    from .arch import build_backend
    from .parallel import WorkloadSpec

    if args.checkpoint_every is not None and not args.checkpoint:
        raise SystemExit("--checkpoint-every requires --checkpoint PATH")
    snap = None
    if args.resume:
        from .checkpoint import load_snapshot

        snap = load_snapshot(args.resume)
        cfg, specs = snap.rebuild_config(), snap.rebuild_workloads()
        print(f"resuming {snap.kind} run from {args.resume} at vtime "
              f"{snap.boundary['value']:g} (verified replay)", file=out)
    else:
        if args.benchmark is None:
            raise SystemExit("run: benchmark is required unless --resume")
        cfg = _make_config(args)
        specs = [WorkloadSpec(args.benchmark, scale=args.scale,
                              seed=args.seed, memory=cfg.memory,
                              root_core=0)]
    written, hooks = [], {}
    if args.checkpoint or args.resume:  # else repro.checkpoint stays unloaded
        from .checkpoint import checkpoint_kwargs, save_snapshot

        def sink(snapshot):
            written.append(save_snapshot(snapshot, args.checkpoint))

        hooks = checkpoint_kwargs(cfg, specs, every=args.checkpoint_every,
                                  sink=sink, resume=snap)
    backend = build_backend(cfg)
    if cfg.backend == "sharded":
        print(backend.describe(), file=out)
    results = backend.run_workloads(specs, **hooks)
    stats = backend.stats
    spec, result = specs[0], results[0]
    vtime = stats.completion_vtime
    verified = not spec.factory  # registered benchmarks check themselves
    if verified:
        workload = spec.resolve()
        workload.verify(result["output"])
        vtime = result["work_vtime"]
        print(f"benchmark        : {spec.benchmark} {workload.meta}",
              file=out)
    print(f"architecture     : {cfg.name} sync={cfg.sync} T={cfg.drift_bound}",
          file=out)
    print(f"virtual time     : {vtime:.1f} cycles", file=out)
    print(f"tasks started    : {stats.tasks_started}", file=out)
    print(f"messages         : {stats.total_messages}", file=out)
    print(f"drift stalls     : {stats.drift_stalls}", file=out)
    print(f"host wall        : {stats.wall_seconds:.3f} s", file=out)
    proto = backend.protocol
    if proto is not None:
        print(f"sync rounds      : {proto['rounds']} "
              f"({proto['waivers']} waivers, window peak "
              f"x{proto['window_peak']:g})", file=out)
        print(f"boundary bytes   : {proto['bytes_shipped']}", file=out)
        print(f"parallel eff.    : {proto['parallel_efficiency']:.1%}",
              file=out)
    if written:
        print(f"checkpoints      : {len(written)} written -> "
              f"{args.checkpoint}", file=out)
    if cfg.telemetry:
        from .obs import build_chrome_trace, collect_snapshot, write_outputs

        snapshot = collect_snapshot(backend)
        if snapshot is not None:
            counters = snapshot.get("counters", {})
            actions = sum(v for k, v in counters.items()
                          if k.startswith("engine.actions."))
            print(f"telemetry        : {len(counters)} counters "
                  f"({actions} actions), "
                  f"{len(snapshot.get('histograms', {}))} histograms",
                  file=out)
            if args.telemetry_out:
                timeline = None
                trace = backend.trace
                if trace is not None:
                    timeline = build_chrome_trace(
                        trace=trace,
                        host_rounds=getattr(backend, "worker_rounds", None),
                        coord_events=getattr(backend, "events", None))
                written_files = write_outputs(args.telemetry_out, snapshot,
                                              timeline)
                for name, path in sorted(written_files.items()):
                    print(f"  wrote {name:8s} : {path}", file=out)
                print(f"  (summarize with: python -m repro obs summarize "
                      f"{args.telemetry_out})", file=out)
    if args.baseline and verified:
        base_cfg = dataclasses.replace(cfg, n_cores=1, polymorphic=False,
                                       topology="mesh", name="single-core",
                                       backend="serial", shards=0)
        (base,) = build_backend(base_cfg).run_workloads([spec])
        speedup = base["work_vtime"] / result["work_vtime"]
        print(f"speedup vs 1 core: {speedup:.2f}x", file=out)
    if verified:
        print("output verified  : yes", file=out)
    return 0


def _cmd_fuzz(args, out) -> int:
    from .verify.fuzzer import fuzz_main

    return fuzz_main(cases=args.cases, seed=args.seed,
                     sanitize=not args.no_sanitize,
                     case_json=args.case, snapshot=args.snapshot, out=out)


def _cmd_dse_sweep(args, out) -> int:
    """``sweep`` in design-space exploration mode (repro.dse)."""
    from .dse import (SweepSpecError, expand_sweep, frame_csv, frame_json,
                      frontier_table, load_sweep_spec, pareto_chart,
                      run_sweep)

    try:
        payload = load_sweep_spec(args.figure)
        if args.backend is not None:
            if args.backend == "sharded" and args.shards < 1:
                raise SweepSpecError("--backend sharded requires --shards N "
                                     "(e.g. --shards 4)")
            if not isinstance(payload, dict):
                raise SweepSpecError("sweep spec must be a JSON object")
            base = payload.setdefault("base", {})
            if not isinstance(base, dict):
                raise SweepSpecError("'base' must be a JSON object")
            arch = base.setdefault("arch", {})
            if not isinstance(arch, dict):
                raise SweepSpecError("'arch' must be a JSON object")
            arch["backend"] = args.backend
            arch["shards"] = args.shards if args.backend == "sharded" else 0
        plan = expand_sweep(payload)
    except SweepSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_pruned = plan.n_cells - len(plan.feasible_cells())
    print(f"sweep            : {plan.name} ({plan.short_id})", file=out)
    print(f"cells            : {plan.n_cells} over "
          f"{len(plan.axes)} axes ({n_pruned} pruned by budget)", file=out)
    print(f"result cache     : {args.store}", file=out)
    outcome = run_sweep(plan, store_dir=args.store, jobs=args.jobs,
                        fresh=args.fresh, timeout_s=args.timeout)
    ex = outcome.execution
    print(f"simulated        : {ex['simulations_started']} new, "
          f"{ex['cache_hits']} cache hits", file=out)
    print(f"cells ok/failed  : {ex['cells_ok']} / {ex['cells_failed']}",
          file=out)
    print(f"host wall        : {ex['wall_seconds']:.3f} s "
          f"({args.jobs} workers)", file=out)
    for cell in outcome.frame["cells"]:
        if cell["status"] == "failed":
            err = cell["error"]
            print(f"  cell {cell['index']} failed [{err['type']}]: "
                  f"{err['message']}", file=out)
    print("", file=out)
    print(frontier_table(outcome.frame), file=out)
    print("", file=out)
    print(pareto_chart(outcome.frame), file=out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(frame_json(outcome.frame))
        print(f"wrote frame      : {args.out}", file=out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(frame_csv(outcome.frame))
        print(f"wrote csv        : {args.csv}", file=out)
    return 1 if ex["cells_failed"] else 0


def _cmd_sweep(args, out) -> int:
    if args.figure not in SWEEPS:
        if os.path.exists(args.figure):
            return _cmd_dse_sweep(args, out)
        print(f"error: {args.figure!r} is neither a known figure "
              f"({', '.join(SWEEPS)}) nor a sweep-spec file",
              file=sys.stderr)
        return 2
    from .harness import (
        clustered_experiment,
        distmem_experiment,
        drift_sweep_experiment,
        polymorphic_experiment,
        sharedmem_experiment,
        simtime_experiment,
        validation_experiment,
    )
    from .harness.report import (
        format_curves,
        format_drift_tables,
        format_power_law,
        format_validation,
    )

    kwargs = dict(scale=args.scale, seeds=args.seeds)
    if args.figure in ("fig5", "fig6"):
        result = validation_experiment(
            sizes=args.sizes, polymorphic=(args.figure == "fig6"), **kwargs)
        print(format_validation(result), file=out)
    elif args.figure == "fig7":
        result = simtime_experiment(sizes=args.sizes, **kwargs)
        print(format_curves(result["normalized"], result["sizes"],
                            title="Normalized simulation time",
                            value_label="sim wall / native wall"), file=out)
        if result["power_law"]:
            print(format_power_law(result["power_law"]), file=out)
    elif args.figure == "fig8":
        result = sharedmem_experiment(sizes=args.sizes, **kwargs)
        print(format_curves(result["curves"], result["sizes"],
                            title="Shared-memory speedups"), file=out)
    elif args.figure == "fig9":
        result = distmem_experiment(sizes=args.sizes, **kwargs)
        print(format_curves(result["curves"], result["sizes"],
                            title="Distributed-memory speedups"), file=out)
    elif args.figure in ("fig10", "fig11"):
        large = tuple(n for n in args.sizes if n > 1) or (64,)
        result = drift_sweep_experiment(sizes=large, **kwargs)
        print(format_drift_tables(result), file=out)
    elif args.figure == "fig12":
        result = clustered_experiment(sizes=args.sizes, **kwargs)
        print(format_curves(result["clustered"], result["sizes"],
                            title="Clustered speedups (4 clusters)"),
              file=out)
    elif args.figure == "fig13":
        result = polymorphic_experiment(sizes=args.sizes, **kwargs)
        print(format_curves(result["polymorphic"], result["sizes"],
                            title="Polymorphic speedups"), file=out)
    return 0


def _cmd_obs(args, out) -> int:
    from .obs import load_metrics, summarize_metrics

    try:
        snapshot = load_metrics(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load metrics from {args.path!r}: {exc}",
              file=sys.stderr)
        return 2
    print(summarize_metrics(snapshot, top=args.top), file=out)
    return 0


def _cmd_serve(args, out) -> int:
    import signal

    from .service import SimulationService

    try:
        service = SimulationService(
            store_dir=args.store, host=args.host, port=args.port,
            workers=args.workers, depth=args.queue_depth,
            job_timeout_s=args.job_timeout, quiet=not args.verbose)
    except ValueError as exc:  # the queue's refusal of a pool size
        raise SystemExit(str(exc))
    print(f"repro service listening on {service.base_url}", file=out)
    print(f"  result cache : {service.store.root} "
          f"({len(service.store)} cached)", file=out)
    print(f"  worker pool  : {args.workers} processes, "
          f"queue depth {args.queue_depth}, "
          f"job timeout {args.job_timeout:g}s", file=out)
    print("  try          : curl -s "
          f"{service.base_url}/v1/health", file=out)

    # SIGTERM (systemd/docker stop) funnels into the same KeyboardInterrupt
    # path as Ctrl-C, so both shut down gracefully: stop accepting, then
    # drain in-flight jobs so accepted work still lands in the cache.
    def _term(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _term)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down: draining in-flight jobs ...", file=out)
    finally:
        signal.signal(signal.SIGTERM, previous)
        drained = service.close(drain=True, timeout=args.job_timeout)
        print("shutdown complete"
              + ("" if drained else " (some jobs were still unfinished)"),
              file=out)
    return 0


def _cmd_policies(args, out) -> int:
    from .harness import sync_policy_ablation
    from .harness.report import format_table

    result = sync_policy_ablation(
        n_cores=args.cores, scale=args.scale, seeds=(args.seed,),
        benchmarks=(args.benchmark,),
    )
    rows = []
    for policy, vtime in result["vtimes"][args.benchmark].items():
        rows.append([
            policy, vtime,
            result["deviation_pct"][args.benchmark][policy],
            result["walls"][args.benchmark][policy],
        ])
    print(format_table(
        ["policy", "virtual time", "vs conservative %", "host s"], rows,
        title=f"{args.benchmark} on {args.cores} cores",
    ), file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(out)
        if args.command == "info":
            return _cmd_info(out)
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "fuzz":
            return _cmd_fuzz(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        if args.command == "policies":
            return _cmd_policies(args, out)
        if args.command == "obs":
            return _cmd_obs(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
    except BrokenPipeError:  # downstream pager/head closed; not an error
        return 0
    except SimConfigError as exc:  # a config the build refuses
        raise SystemExit(str(exc))
    raise SystemExit(2)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
