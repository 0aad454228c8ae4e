"""The layered end-to-end benchmark (see README.md in this directory).

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME]
        [--seed N] [--seconds S] [--trace [0|1]] [--quick]

With ``--workload`` one workload runs in this process and the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``).  Without it all five
workloads run one after the other, each in a process of its own.  The
exit code is non-zero when any op failed.

The command itself only supervises (``supervise.py``): the benchmark
runs in a child, and the command returns when that child and every
process it started or orphaned have ended.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

_T0 = time.perf_counter()

import catalog  # noqa: E402  (pure data; the program is imported later)

#: Set-up probes per end-to-end run; ``setup_s`` is their minimum.  Half
#: run before the warm-up and half after the last pass: this host has
#: slow stretches of tens of seconds, and probes taken back to back all
#: fall into the same one.
N_PROBES = 6
#: Start another timed pass when at least this share of it fits in what
#: is left of ``--seconds``.
_FIT = 0.75


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w.name for w in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: dataset seeds and op order")
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                        help="wall-clock budget of an end-to-end run: "
                             "set-up probes, warm-up and timed passes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny/small scales, one pass (smoke test)")
    parser.add_argument("--supervised", action="store_true",
                        help=argparse.SUPPRESS)   # set by supervise.run
    return parser.parse_args(argv)


def load_expected(workload: str, seed: int, quick: bool):
    """The pinned sim_digest, known for seed 0 only."""
    if seed != 0:
        return None
    from ops import HERE

    with open(os.path.join(HERE, "expected.json")) as fh:
        pinned = json.load(fh)
    return pinned["quick" if quick else "full"].get(workload)


def end_to_end(args, ops, expected):
    """Probes, warm-up and timed passes with tracing off."""
    import measure
    from spans import SpanRecorder

    rec = SpanRecorder(enabled=False)
    check = measure.Correctness(ops)
    driver = measure.make_driver(args.workload, ops)
    n_lead = 1 if args.quick else N_PROBES // 2
    n_trail = 0 if args.quick else N_PROBES - n_lead
    probes = [driver.probe() for _ in range(n_lead)]
    reserved = n_trail * statistics.median(probes)
    passes, pass_walls = [], []
    with driver:
        check.add(driver.warm_up(rec, args.quick))
        while True:
            t0 = time.perf_counter()
            done = driver.run_pass(rec)
            pass_walls.append(time.perf_counter() - t0)
            passes.append(done)
            check.add(done.results)
            if args.quick:
                break
            spent = time.perf_counter() - _T0 + reserved
            fits = spent + _FIT * statistics.median(pass_walls) <= args.seconds
            if len(passes) >= 2 and not fits:
                break
    probes += [driver.probe() for _ in range(n_trail)]
    summary = measure.summarise(passes)
    correct = check.close(expected)
    metrics = {
        "events_per_s": (summary["events_per_s"], "1/s"),
        "setup_s": (min(probes), "s"),
        "peak_rss_mb": (driver.peak_rss_mb(), "MB"),
    }
    host = {
        "passes": len(passes),
        "events_per_pass": summary["events_per_pass"],
        "events_per_s_median": summary["events_per_s_median"],
        "pass_spread": summary["pass_spread"],
        "units": summary["units"],
        "setup_probes_s": probes,
        "sim_digest": check.digest(),
    }
    return correct, check, metrics, host


def effective_kernel() -> str:
    from repro.harness.perfbench import effective_kernel as resolve

    return resolve()


def print_table(title, rows) -> None:
    print(f"\n{title}")
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>14} {unit:<9} {note}".rstrip())


def run_one(args) -> int:
    import inputs
    from ops import OUT

    os.makedirs(OUT, exist_ok=True)
    ops = inputs.make_ops(args.workload, args.seed, args.quick)
    expected = load_expected(args.workload, args.seed, args.quick)
    if args.trace:
        import layers   # imports the program's checkpoint/service/dse layers

        correct, check, metrics, host = layers.traced_run(args, ops, expected)
    else:
        correct, check, metrics, host = end_to_end(args, ops, expected)
    host["engine_kernel"] = effective_kernel()
    host["host_cpus"] = os.cpu_count()
    host["wall_s"] = round(time.perf_counter() - _T0, 3)

    mode = "traced run, per-layer" if args.trace else "end-to-end"
    print(f"workload {args.workload}  seed {args.seed}  ({mode}"
          f"{', quick' if args.quick else ''})")
    if args.trace:
        layers.print_layer_table(args.workload, metrics)
        for note in host["notes"]:
            print(f"  note: {note}")
    else:
        bounds = {n: f"may worsen <= {b:.0%}"
                  for n, _, _, b in catalog.END_TO_END}
        print_table("end-to-end", [(n, v, u, bounds[n])
                                   for n, (v, u) in metrics.items()])
        spread = host["pass_spread"]
        print_table("host diagnostics", [
            ("host.events_per_s_median", host["events_per_s_median"], "1/s",
             ""),
            ("host.pass_spread", spread, "share",
             "DISTURBED (> 0.10)" if spread > 0.10 else ""),
            ("passes", host["passes"], "count", ""),
            ("events_per_pass", host["events_per_pass"], "count", ""),
        ])
    print(f"\nops attempted {check.attempted}  failed {check.failed}  "
          f"sim_digest {host['sim_digest'][:16]}  "
          f"kernel {host['engine_kernel']}  wall {host['wall_s']} s")
    for err in check.errors:
        print(f"  error: {err.strip().splitlines()[-1]}", file=sys.stderr)
    print(catalog.HOST_LINE_PREFIX + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a process of its own (so no workload's
    memory or caches leak into the next one's numbers)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w.name for w in catalog.WORKLOADS):
        cmd = [sys.executable, os.path.abspath(__file__), "--supervised",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        try:
            last = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            last = {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}}
        combined["correct"] &= last["correct"] and done.returncode == 0
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, entry in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
        print()
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.supervised:
        import supervise

        return supervise.run(
            [sys.executable, os.path.abspath(__file__), "--supervised",
             *(sys.argv[1:] if argv is None else argv)])
    # The kernel is the program's default, never the caller's choice.
    os.environ.pop("REPRO_ENGINE_KERNEL", None)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
