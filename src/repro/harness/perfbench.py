"""Hot-path microbenchmark suite (``python -m repro bench``).

The paper's headline claim is raw simulation speed, so the repo keeps a
machine-readable record of engine throughput in ``BENCH_engine.json`` at
the repository root.  The suite measures the individually-optimised layers
(engine step dispatch, messaging, virtual-time fabric, route resolution)
— what the end-to-end benchmark (``benchmarks/e2e``, whose ``serial_64``
and ``sharded_64x2`` workloads run whole dwarfs verified and
digest-pinned) does not measure on its own.

Every benchmark reports:

* ``wall_s`` — best-of-``repeat`` host wall time;
* ``events`` — deterministic count of simulation events processed
  (actions, messages, fabric advances, ... depending on the benchmark);
* ``events_per_sec`` — the headline throughput number.

``benchmarks/perf/check_regression.py`` compares a fresh run against the
committed record and fails CI on an events/sec regression beyond its
tolerance.
"""

from __future__ import annotations

import json
import math
import platform
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..arch import build_machine, shared_mesh
from ..core.fabric import VirtualTimeFabric
from ..core.task import TaskGroup
from ..network.routing import RoutingTable
from ..network.topology import square_mesh, torus2d

#: File name of the committed benchmark record (repo root).
BENCH_FILE = "BENCH_engine.json"

#: Regression tolerance used by check_regression.py (fraction of baseline).
REGRESSION_TOLERANCE = 0.25


# -- workload generators for the micro benchmarks ------------------------

def _steps_root(n_actions: int):
    """Alternating compute/now actions: measures raw action dispatch."""

    def root(ctx):
        for _ in range(n_actions // 2):
            yield ctx.compute(cycles=1.0)
            yield ctx.now()
        return None

    return root


def _pingpong_root(rounds: int, fanout: int):
    """Root exchanges tagged messages with ``fanout`` spawned partners."""

    def partner(ctx, root_core, k):
        yield ctx.send(root_core, tag="hello")
        for _ in range(k):
            yield ctx.recv(tag="ping")
            yield ctx.send(root_core, tag="pong")
        return None

    def root(ctx):
        group = TaskGroup()
        spawned = 0
        for _ in range(fanout):
            ok = yield ctx.try_spawn(partner, ctx.core_id, rounds, group=group)
            if ok:
                spawned += 1
        peers = []
        for _ in range(spawned):
            msg = yield ctx.recv(tag="hello")
            peers.append(msg.src)
        for _ in range(rounds):
            for p in peers:
                yield ctx.send(p, tag="ping")
            for _ in peers:
                yield ctx.recv(tag="pong")
        yield ctx.join(group)
        return None

    return root


# -- individual benchmarks ----------------------------------------------

def bench_engine_steps(n_actions: int = 40_000) -> Dict[str, float]:
    """Engine action dispatch throughput (steps/sec)."""
    machine = build_machine(shared_mesh(4))
    t0 = time.perf_counter()
    machine.run(_steps_root(n_actions))
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": machine.stats.actions}


def bench_messages(rounds: int = 600, fanout: int = 4) -> Dict[str, float]:
    """Messaging throughput (messages/sec) over a 16-core mesh."""
    machine = build_machine(shared_mesh(16))
    t0 = time.perf_counter()
    machine.run(_pingpong_root(rounds, fanout))
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": machine.stats.total_messages}


def bench_fabric_advances(n_cores: int = 1024, rounds: int = 60) -> Dict[str, float]:
    """Virtual-time advance throughput with a half-idle 32x32 mesh.

    Odd cores are idle so every advance wave relaxes shadow times through
    idle regions (the fast-mode hot path).
    """
    topo = square_mesh(n_cores)
    fabric = VirtualTimeFabric(topo, drift_bound=100.0)
    for c in range(n_cores):
        fabric.set_active(c, 0.0)
    for c in range(1, n_cores, 2):
        fabric.set_idle(c)
    actives = list(range(0, n_cores, 2))
    events = 0
    t0 = time.perf_counter()
    t = 0.0
    for _ in range(rounds):
        t += 10.0
        for c in actives:
            fabric.advance(c, t + (c % 7))
            events += 1
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": events}


def bench_fabric_refresh(n_cores: int = 1024, rounds: int = 40) -> Dict[str, float]:
    """Exact shadow recompute throughput (multi-source fixpoint)."""
    topo = square_mesh(n_cores)
    fabric = VirtualTimeFabric(topo, drift_bound=100.0)
    # Scattered active cores anchor the fixpoint; the rest are idle.
    for c in range(0, n_cores, 17):
        fabric.set_active(c, float(c))
    events = 0
    t0 = time.perf_counter()
    for _ in range(rounds):
        fabric.refresh_shadows()
        events += 1
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": events}


def bench_route_resolution(n_cores: int = 1024, few: int = 48,
                           far_each: int = 128, many: int = 400,
                           near_each: int = 4) -> Dict[str, float]:
    """Route resolution on a fresh routing table of a 32x32 torus.

    A torus, not the mesh: a uniform mesh routes in closed form and
    grows no tree, so the search is timed where it still runs.  The pair
    list (seeded, fixed) has the two shapes 1024-core runs ask for:
    ``few`` sources each reaching ``far_each`` cores anywhere on the
    machine (dijkstra/numa: a handful of owners answer everyone), then
    ``many`` sources each reaching ``near_each`` (connected_components/
    distributed: most cores talk, each to a few).  ``trees`` is the
    deterministic number of per-source searches the pairs started.
    """
    rng = random.Random(0)
    pairs = []
    for n_sources, each in ((few, far_each), (many, near_each)):
        for src in rng.sample(range(n_cores), n_sources):
            pairs += [(src, dst) for dst in rng.sample(range(n_cores), each)
                      if dst != src]
    topo = torus2d(math.isqrt(n_cores))
    t0 = time.perf_counter()
    routing = RoutingTable(topo)
    for src, dst in pairs:
        routing.route(src, dst)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": len(pairs),
            "trees": routing.trees_built}


#: Benchmark registry: name -> (callable, quick-mode kwargs).
SUITE: Dict[str, tuple] = {
    "engine_steps": (bench_engine_steps, {"n_actions": 4_000}),
    "messages": (bench_messages, {"rounds": 80}),
    "fabric_advances": (bench_fabric_advances, {"rounds": 6}),
    "fabric_refresh": (bench_fabric_refresh, {"rounds": 4}),
    "route_resolution_1024": (
        bench_route_resolution,
        {"few": 6, "far_each": 32, "many": 40},
    ),
}


def run_suite(
    repeat: int = 3,
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    out=None,
) -> Dict[str, Dict[str, float]]:
    """Run the suite; return ``{name: {wall_s, events, events_per_sec}}``.

    ``repeat`` takes the best (fastest) of N runs; event counts are
    deterministic and must agree across repeats.  ``quick`` shrinks the
    problem sizes (used by CI smoke checks and --profile).
    """
    results: Dict[str, Dict[str, float]] = {}
    names = list(only) if only else list(SUITE)
    # Validate the whole subset up front so a typo cannot burn minutes
    # of benchmarking before failing on the last name.
    unknown = [name for name in names if name not in SUITE]
    if unknown:
        raise KeyError(
            f"unknown benchmark(s) {', '.join(map(repr, unknown))}; "
            f"choose from {sorted(SUITE)}")
    for name in names:
        fn, quick_kwargs = SUITE[name]
        kwargs = quick_kwargs if quick else {}
        best = None
        for _ in range(max(1, repeat)):
            sample = fn(**kwargs)
            if best is None or sample["wall_s"] < best["wall_s"]:
                best = sample
            elif sample["events"] != best["events"]:
                raise RuntimeError(
                    f"benchmark {name} is nondeterministic: "
                    f"{sample['events']} != {best['events']} events"
                )
        best["events_per_sec"] = (
            best["events"] / best["wall_s"] if best["wall_s"] > 0 else 0.0
        )
        results[name] = best
        if out is not None:
            print(
                f"  {name:34s} {best['events']:>9.0f} events "
                f"{best['wall_s']:>8.3f} s "
                f"{best['events_per_sec']:>12.0f} events/s",
                file=out,
            )
    return results


def effective_kernel() -> str:
    # benchmarks/e2e/run.py imports this; records name the one path so.
    return "vectorized"


def make_record(results: Dict[str, Dict[str, float]], repeat: int = 3) -> Dict:
    """Assemble the JSON document written to ``BENCH_engine.json``."""
    return {
        "schema": 3,
        "suite": "repro-perf",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "repeat": repeat,
        "results": results,
    }


def load_record(path: str) -> Optional[Dict]:
    """Load a benchmark record; None when missing or unreadable."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def run_and_write(
    output: str = BENCH_FILE,
    repeat: int = 3,
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    baseline_path: Optional[str] = None,
    out=None,
) -> Dict:
    """Run the suite and persist the record (CLI entry point body)."""
    out = out or sys.stdout
    print("running perf suite"
          + (" (quick)" if quick else "")
          + f", best of {repeat}:", file=out)
    results = run_suite(repeat=repeat, quick=quick, only=only, out=out)
    record = make_record(results, repeat=repeat)
    if output:
        with open(output, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {output}", file=out)
    # Ratios against a previous record are printed, never embedded: a
    # record that carries its predecessor goes stale with it.
    baseline = load_record(baseline_path) if baseline_path else None
    base_results = (baseline or {}).get("results", {})
    for name, res in sorted(results.items()):
        base_rate = base_results.get(name, {}).get("events_per_sec")
        if base_rate:
            print(f"  speedup {name:30s} "
                  f"{res['events_per_sec'] / base_rate:.2f}x", file=out)
    return record


def profile_suite(quick: bool = True, top: int = 20, out=None) -> None:
    """Run the suite under cProfile; print the top cumulative functions."""
    import cProfile
    import pstats

    out = out or sys.stdout
    profiler = cProfile.Profile()
    profiler.enable()
    run_suite(repeat=1, quick=quick)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative").print_stats(top)
