"""Experiment runners — one per table/figure of the paper's evaluation.

Every function is deterministic given its seeds and returns plain dicts so
the benchmark harness can print the same rows/series the paper reports.
Dataset sizes are scaled down by default (see
:mod:`repro.workloads.generators`); pass ``scale="paper"`` for published
sizes.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import metrics
from ..arch import (
    ArchConfig,
    build_machine,
    clustered_dist,
    dist_mesh,
    polymorphic_dist,
    polymorphic_shared_validation,
    shared_mesh,
    shared_mesh_validation,
)
from ..core.stats import SimStats
from ..cyclelevel import build_cycle_level_machine
from ..workloads import BENCHMARKS, VALIDATION_BENCHMARKS, get_workload

#: Default sweep sizes (paper: 1, 8, 64, 256, 1024 / validation to 64).
DEFAULT_SIZES = (1, 4, 16, 64)
DEFAULT_VALIDATION_SIZES = (1, 4, 16)


@dataclass
class RunRecord:
    """Outcome of one simulated benchmark run.

    ``vtime`` is the simulated completion time in cycles, ``wall`` the
    host seconds the simulation took, and ``native_wall`` the host
    seconds of the unsimulated equivalent computation — the denominator
    of the paper's normalized simulation time (Fig. 7; 0.0 unless the
    run measured it).  ``stats`` is the machine's full
    :class:`~repro.core.stats.SimStats`.

    Example::

        from repro.arch import shared_mesh
        from repro.harness.experiments import run_benchmark

        rec = run_benchmark("quicksort", shared_mesh(16), scale="tiny")
        print(rec.vtime, rec.stats.total_messages)
    """

    benchmark: str
    arch: str
    n_cores: int
    vtime: float
    wall: float
    native_wall: float
    stats: SimStats
    meta: Dict = field(default_factory=dict)


def _native_wall(workload, repeats: int = 3) -> float:
    """Wall-clock of the unsimulated equivalent computation (min of runs)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        workload.native()
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9)


def run_benchmark(
    name: str,
    cfg: ArchConfig,
    scale: str = "small",
    seed: int = 0,
    verify: bool = True,
    measure_native: bool = False,
) -> RunRecord:
    """Run one benchmark on one architecture configuration."""
    workload = get_workload(name, scale=scale, seed=seed, memory=cfg.memory)
    machine = build_machine(cfg)
    result = machine.run(workload.root)
    if verify:
        workload.verify(result["output"])
    vtime = result.get("work_vtime", machine.completion_time)
    return RunRecord(
        benchmark=name,
        arch=cfg.name,
        n_cores=cfg.n_cores,
        vtime=vtime,
        wall=machine.stats.wall_seconds,
        native_wall=_native_wall(workload) if measure_native else 0.0,
        stats=machine.stats,
        meta=dict(workload.meta),
    )


def run_cycle_level(
    name: str,
    n_cores: int,
    polymorphic: bool = False,
    scale: str = "small",
    seed: int = 0,
    verify: bool = True,
) -> RunRecord:
    """Run one benchmark on the cycle-level referee."""
    workload = get_workload(name, scale=scale, seed=seed, memory="shared")
    machine = build_cycle_level_machine(n_cores, polymorphic=polymorphic,
                                        seed=seed)
    result = machine.run(workload.root)
    if verify:
        workload.verify(result["output"])
    vtime = result.get("work_vtime", machine.completion_time)
    return RunRecord(
        benchmark=name,
        arch=f"cycle-level-{n_cores}",
        n_cores=n_cores,
        vtime=vtime,
        wall=machine.stats.wall_seconds,
        native_wall=0.0,
        stats=machine.stats,
        meta=dict(workload.meta),
    )


def vt_speedup_curve(
    name: str,
    arch_factory: Callable[[int], ArchConfig],
    sizes: Sequence[int],
    scale: str = "small",
    seeds: Sequence[int] = (0,),
) -> Dict[int, float]:
    """Mean SiMany speedup curve over datasets for one benchmark."""
    curves = []
    for seed in seeds:
        vtimes = {}
        for n in sizes:
            record = run_benchmark(name, arch_factory(n), scale=scale, seed=seed)
            vtimes[n] = record.vtime
        curves.append(metrics.speedup_curve(vtimes))
    return metrics.mean_speedup_curves(curves)


def cl_speedup_curve(
    name: str,
    sizes: Sequence[int],
    polymorphic: bool = False,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
) -> Dict[int, float]:
    """Mean cycle-level speedup curve over datasets for one benchmark."""
    curves = []
    for seed in seeds:
        vtimes = {}
        for n in sizes:
            record = run_cycle_level(name, n, polymorphic=polymorphic,
                                     scale=scale, seed=seed)
            vtimes[n] = record.vtime
        curves.append(metrics.speedup_curve(vtimes))
    return metrics.mean_speedup_curves(curves)


# -- Figures 5 and 6: cycle-level validation ----------------------------------

def validation_experiment(
    sizes: Sequence[int] = DEFAULT_VALIDATION_SIZES,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    polymorphic: bool = False,
    benchmarks: Sequence[str] = VALIDATION_BENCHMARKS,
) -> Dict:
    """Figs. 5/6: SiMany (VT) vs cycle-level (CL) speedups + error table.

    VT runs enable coherence timings, matching the paper's protocol of
    enabling them in SiMany rather than disabling them in the referee.
    """
    if polymorphic:
        def factory(n: int) -> ArchConfig:
            return polymorphic_shared_validation(n)
    else:
        def factory(n: int) -> ArchConfig:
            return shared_mesh_validation(n)

    vt_curves: Dict[str, Dict[int, float]] = {}
    cl_curves: Dict[str, Dict[int, float]] = {}
    for name in benchmarks:
        vt_curves[name] = vt_speedup_curve(name, factory, sizes, scale, seeds)
        cl_curves[name] = cl_speedup_curve(name, sizes, polymorphic, scale, seeds)
    errors = {
        n: metrics.geomean_error(vt_curves, cl_curves, n)
        for n in sizes if n > 1
    }
    return {
        "sizes": list(sizes),
        "vt": vt_curves,
        "cl": cl_curves,
        "errors": errors,
        "polymorphic": polymorphic,
    }


# -- Figure 7: normalized simulation time --------------------------------------

def simtime_experiment(
    sizes: Sequence[int] = DEFAULT_SIZES,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    benchmarks: Sequence[str] = BENCHMARKS,
    memories: Sequence[str] = ("shared", "distributed"),
) -> Dict:
    """Fig. 7: simulation time normalized to native execution, plus the
    power-law regression of simulation time vs simulated core count."""
    norm: Dict[str, Dict[int, float]] = {name: {} for name in benchmarks}
    raw_wall: Dict[str, Dict[int, float]] = {name: {} for name in benchmarks}
    for name in benchmarks:
        for n in sizes:
            samples = []
            walls = []
            for seed in seeds:
                for memory in memories:
                    cfg = shared_mesh(n) if memory == "shared" else dist_mesh(n)
                    record = run_benchmark(name, cfg, scale=scale, seed=seed,
                                           measure_native=True)
                    samples.append(metrics.normalized_simulation_time(
                        record.wall, record.native_wall))
                    walls.append(record.wall)
            norm[name][n] = metrics.geomean(samples)
            raw_wall[name][n] = sum(walls) / len(walls)
    fits = {}
    for name in benchmarks:
        pts = {n: w for n, w in raw_wall[name].items() if n > 1}
        if len(pts) >= 2:
            fits[name] = metrics.power_law_fit(pts)
    return {
        "sizes": list(sizes),
        "normalized": norm,
        "wall": raw_wall,
        "power_law": fits,
    }


# -- Figures 8, 9, 12, 13: architecture exploration --------------------------

def sharedmem_experiment(
    sizes: Sequence[int] = DEFAULT_SIZES,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    benchmarks: Sequence[str] = BENCHMARKS,
) -> Dict:
    """Fig. 8: speedups on regular 2D meshes, optimistic shared memory."""
    curves = {
        name: vt_speedup_curve(name, shared_mesh, sizes, scale, seeds)
        for name in benchmarks
    }
    return {"sizes": list(sizes), "curves": curves}


def distmem_experiment(
    sizes: Sequence[int] = DEFAULT_SIZES,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    benchmarks: Sequence[str] = BENCHMARKS,
) -> Dict:
    """Fig. 9: speedups on regular 2D meshes, distributed memory."""
    curves = {
        name: vt_speedup_curve(name, dist_mesh, sizes, scale, seeds)
        for name in benchmarks
    }
    return {"sizes": list(sizes), "curves": curves}


def clustered_experiment(
    sizes: Sequence[int] = DEFAULT_SIZES,
    n_clusters: int = 4,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    benchmarks: Sequence[str] = BENCHMARKS,
) -> Dict:
    """Fig. 12: clustered vs regular distributed-memory meshes.

    Reports both speedup curves, the per-benchmark crossover core count
    (paper average: ~78), and the virtual-execution-time change at the
    largest size (paper: CC -28.7 %, Dijkstra -25.6 %, Quicksort -2.2 %,
    SpMxV -0.1 % at 1024 cores).
    """
    def clustered_factory(n: int) -> ArchConfig:
        if n <= n_clusters:
            return dist_mesh(n)  # degenerate: fewer cores than clusters
        return clustered_dist(n, n_clusters=n_clusters)

    regular: Dict[str, Dict[int, float]] = {}
    clustered: Dict[str, Dict[int, float]] = {}
    exec_change: Dict[str, float] = {}
    crossover: Dict[str, float] = {}
    top = max(sizes)
    for name in benchmarks:
        reg_times: List[Dict[int, float]] = []
        clu_times: List[Dict[int, float]] = []
        for seed in seeds:
            rt, ct = {}, {}
            for n in sizes:
                rt[n] = run_benchmark(name, dist_mesh(n), scale=scale,
                                      seed=seed).vtime
                ct[n] = run_benchmark(name, clustered_factory(n), scale=scale,
                                      seed=seed).vtime
            reg_times.append(rt)
            clu_times.append(ct)
        regular[name] = metrics.mean_speedup_curves(
            [metrics.speedup_curve(t) for t in reg_times])
        clustered[name] = metrics.mean_speedup_curves(
            [metrics.speedup_curve(t) for t in clu_times])
        reg_top = sum(t[top] for t in reg_times) / len(reg_times)
        clu_top = sum(t[top] for t in clu_times) / len(clu_times)
        exec_change[name] = metrics.percent_change(clu_top, reg_top)
        crossover[name] = metrics.crossover_point(regular[name], clustered[name])
    return {
        "sizes": list(sizes),
        "regular": regular,
        "clustered": clustered,
        "exec_time_change_pct": exec_change,
        "crossover_cores": crossover,
        "n_clusters": n_clusters,
    }


def polymorphic_experiment(
    sizes: Sequence[int] = DEFAULT_SIZES,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    benchmarks: Sequence[str] = BENCHMARKS,
) -> Dict:
    """Fig. 13: polymorphic distributed-memory meshes vs uniform ones.

    Polymorphic architectures keep the cumulated computing power of the
    uniform mesh; the paper reports an average -18.8 % speedup for the
    non-regular benchmarks at 256/1024 cores.
    """
    uniform: Dict[str, Dict[int, float]] = {}
    poly: Dict[str, Dict[int, float]] = {}
    change: Dict[str, float] = {}
    large = [n for n in sizes if n >= max(sizes) // 4 and n > 1] or [max(sizes)]
    for name in benchmarks:
        uniform[name] = vt_speedup_curve(name, dist_mesh, sizes, scale, seeds)
        poly[name] = vt_speedup_curve(name, polymorphic_dist, sizes, scale, seeds)
        deltas = [
            metrics.percent_change(poly[name][n], uniform[name][n])
            for n in large
        ]
        change[name] = sum(deltas) / len(deltas)
    return {
        "sizes": list(sizes),
        "uniform": uniform,
        "polymorphic": poly,
        "speedup_change_pct": change,
    }


# -- Figures 10 and 11: the T accuracy/speed trade-off ----------------------

def drift_sweep_experiment(
    t_values: Sequence[float] = (50.0, 100.0, 500.0, 1000.0),
    baseline_t: float = 100.0,
    sizes: Sequence[int] = (64,),
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    benchmarks: Sequence[str] = BENCHMARKS,
) -> Dict:
    """Figs. 10/11: speedup and simulation-time variation as T varies.

    Only sizes >= 64 matter in the paper's averages (the interesting part
    of the scalability profiles).  Variations are percent changes against
    the T=100 baseline.
    """
    if baseline_t not in t_values:
        t_values = tuple(t_values) + (baseline_t,)
    vt: Dict[str, Dict[float, float]] = {name: {} for name in benchmarks}
    wall: Dict[str, Dict[float, float]] = {name: {} for name in benchmarks}
    stalls: Dict[str, Dict[float, float]] = {name: {} for name in benchmarks}
    for name in benchmarks:
        for t in t_values:
            vts, walls, stall_counts = [], [], []
            for seed in seeds:
                for n in sizes:
                    cfg = shared_mesh(n).with_drift(float(t))
                    record = run_benchmark(name, cfg, scale=scale, seed=seed)
                    vts.append(record.vtime)
                    walls.append(record.wall)
                    stall_counts.append(record.stats.drift_stalls)
            vt[name][t] = sum(vts) / len(vts)
            wall[name][t] = sum(walls) / len(walls)
            stalls[name][t] = sum(stall_counts) / len(stall_counts)
    speedup_variation: Dict[str, Dict[float, float]] = {}
    simtime_variation: Dict[str, Dict[float, float]] = {}
    for name in benchmarks:
        base_vt = vt[name][baseline_t]
        base_wall = wall[name][baseline_t]
        # Speedup = base_time/vtime, so speedup variation is inverse vtime
        # variation.
        speedup_variation[name] = {
            t: metrics.percent_change(base_vt / vt[name][t], 1.0)
            for t in t_values if t != baseline_t
        }
        simtime_variation[name] = {
            t: metrics.percent_change(wall[name][t], base_wall)
            for t in t_values if t != baseline_t
        }
    return {
        "t_values": [t for t in t_values if t != baseline_t],
        "baseline_t": baseline_t,
        "speedup_variation_pct": speedup_variation,
        "simtime_variation_pct": simtime_variation,
        "vtimes": vt,
        "walls": wall,
        "drift_stalls": stalls,
    }


# -- Ablations ----------------------------------------------------------------

def sync_policy_ablation(
    policies: Sequence[str] = ("spatial", "quantum", "bounded_slack",
                               "laxp2p", "unbounded", "conservative"),
    n_cores: int = 64,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    benchmarks: Sequence[str] = ("quicksort", "connected_components"),
) -> Dict:
    """Ablation: virtual-time accuracy and host cost per sync policy.

    The conservative policy is the ordering referee: its virtual times are
    the zero-drift reference the loose policies are compared against.
    """
    vtimes: Dict[str, Dict[str, float]] = {name: {} for name in benchmarks}
    walls: Dict[str, Dict[str, float]] = {name: {} for name in benchmarks}
    for name in benchmarks:
        for policy in policies:
            vts, ws = [], []
            for seed in seeds:
                cfg = dataclasses.replace(
                    shared_mesh(n_cores), sync=policy,
                    name=f"shared-mesh-{n_cores}-{policy}")
                record = run_benchmark(name, cfg, scale=scale, seed=seed)
                vts.append(record.vtime)
                ws.append(record.wall)
            vtimes[name][policy] = sum(vts) / len(vts)
            walls[name][policy] = sum(ws) / len(ws)
    deviation: Dict[str, Dict[str, float]] = {}
    for name in benchmarks:
        ref = vtimes[name].get("conservative")
        if ref:
            deviation[name] = {
                policy: metrics.percent_change(vtimes[name][policy], ref)
                for policy in vtimes[name]
            }
    return {"vtimes": vtimes, "walls": walls, "deviation_pct": deviation}


def dispatch_ablation(
    n_cores: int = 64,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    benchmarks: Sequence[str] = ("octree", "quicksort",
                                 "connected_components"),
) -> Dict:
    """Ablation A3 — heterogeneity-aware scheduling (paper future work).

    The paper's conclusion: polymorphic/clustered results "could be
    improved substantially with specific scheduling policies that would
    take into account the latency and computing power disparity among
    cores".  Measures each dispatch policy's virtual time on polymorphic
    shared-memory meshes and clustered distributed-memory meshes against
    the paper's occupancy-only default.
    """
    from ..arch import polymorphic_shared

    poly: Dict[str, Dict[str, float]] = {}
    clustered: Dict[str, Dict[str, float]] = {}
    for name in benchmarks:
        poly[name] = {}
        clustered[name] = {}
        for dispatch in ("occupancy", "speed_aware", "random"):
            vts = []
            for seed in seeds:
                cfg = dataclasses.replace(polymorphic_shared(n_cores),
                                          dispatch=dispatch)
                vts.append(run_benchmark(name, cfg, scale=scale,
                                         seed=seed).vtime)
            poly[name][dispatch] = sum(vts) / len(vts)
        for dispatch in ("occupancy", "latency_aware", "random"):
            vts = []
            for seed in seeds:
                cfg = dataclasses.replace(clustered_dist(n_cores, 4),
                                          dispatch=dispatch)
                vts.append(run_benchmark(name, cfg, scale=scale,
                                         seed=seed).vtime)
            clustered[name][dispatch] = sum(vts) / len(vts)
    improvement = {
        name: metrics.percent_change(poly[name]["speed_aware"],
                                     poly[name]["occupancy"])
        for name in benchmarks
    }
    return {
        "polymorphic": poly,
        "clustered": clustered,
        "poly_speedaware_change_pct": improvement,
    }


def parallelism_study(
    sizes: Sequence[int] = (16, 64, 256),
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    benchmark: str = "octree",
    sample_interval: int = 16,
) -> Dict:
    """Parallel-host feasibility study (paper, Section VIII).

    The paper's preliminary study "indicates that, at least from networks
    with 64 cores, there are enough cores verifying these conditions to
    keep all cores of current multi-core host machines busy".  We sample,
    during spatial-sync runs, how many cores are concurrently runnable
    (have work and pass the drift check) — the parallelism a multithreaded
    host implementation could exploit.
    """
    import numpy as np

    out: Dict[int, Dict[str, float]] = {}
    for n in sizes:
        samples: List[int] = []
        for seed in seeds:
            cfg = dataclasses.replace(
                shared_mesh(n), parallelism_sample_interval=sample_interval)
            record = run_benchmark(benchmark, cfg, scale=scale, seed=seed)
            samples.extend(record.stats.parallelism_samples)
        arr = np.asarray(samples if samples else [0])
        out[n] = {
            "mean": float(arr.mean()),
            "p95": float(np.percentile(arr, 95)),
            "max": float(arr.max()),
            "samples": len(samples),
        }
    return {"benchmark": benchmark, "by_cores": out}


def shadow_time_ablation(
    n_cores: int = 64,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    benchmark: str = "octree",
) -> Dict:
    """Ablation: shadow virtual time on/off/exact (Section II-A).

    Without shadows, idle cores do not constrain drift and non-connected
    active sets can drift beyond diameter x T; the ablation reports the
    maximum observed drift and the host cost of each mode.
    """
    modes = {
        "shadow_fast": {"shadow": "fast"},
        "shadow_exact": {"shadow": "exact"},
        "no_shadow": {"shadow": "off"},
    }
    out: Dict[str, Dict[str, float]] = {}
    for label, overrides in modes.items():
        vts, walls, stalls = [], [], []
        for seed in seeds:
            cfg = dataclasses.replace(
                shared_mesh(n_cores),
                name=f"shared-mesh-{n_cores}-{label}", **overrides)
            record = run_benchmark(benchmark, cfg, scale=scale, seed=seed)
            vts.append(record.vtime)
            walls.append(record.wall)
            stalls.append(record.stats.drift_stalls)
        out[label] = {
            "vtime": sum(vts) / len(vts),
            "wall": sum(walls) / len(walls),
            "drift_stalls": sum(stalls) / len(stalls),
        }
    return out
