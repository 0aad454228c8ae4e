"""The traced run: one pass with spans on, plus direct calls per layer.

Never used for end-to-end numbers.  A traced run is: warm-up, two
reference passes (tracing off), one traced pass (spans around every
public call; for the direct workloads also the program's own telemetry,
``counters,profile``), then the layer probes of that workload — direct,
timed calls into ``checkpoint``, ``service``, ``harness`` and ``dse``
and, for the engine workloads, one cProfile pass whose self time is
summed per ``repro/<package>/``.  ``obs.telemetry_overhead`` is the
traced pass over the faster reference pass.

Inside ``Machine.run`` nothing can be split from outside, so the traced
pass uses what the program already exposes (phase samples, telemetry
counters, ``machine.stats``, ``backend.protocol``, ``GET /v1/metrics``);
spans inside the program are a later issue.
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import pstats
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

from repro.checkpoint import (capture_machine_state, decode, encode,
                              load_snapshot, make_snapshot, resume_serial,
                              run_serial_checkpointed, run_straight,
                              save_snapshot, verify_machine_state)
from repro.dse import expand_sweep, frame_json, non_dominated, run_sweep
from repro.harness.results import run_record
from repro.harness.trace import Tracer, trace_digest
from repro.obs import collect_snapshot, validate_chrome_trace
from repro.service import JobQueue, ResultStore, resolve_spec

import catalog
import inputs
import measure
import ops as program
import service
from catalog import COLD, SERIAL_64, SERIAL_1024, SHARDED, WARM
from spans import BENCH_LAYER, SpanRecorder

#: Untraced passes the traced pass is compared with.
REFERENCE_PASSES = 2
#: Snapshots taken per op by the checkpoint probe.
SNAPSHOTS_PER_OP = 4

Values = Dict[str, float]


def _timed(fn: Callable, *args, **kwargs) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _median_call_s(fn: Callable, repeat: int) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(repeat))


def _pass_cost(done: measure.Pass) -> float:
    """Seconds per event, summed over the pass's units."""
    return sum(t / e for e, t in done.units if e > 0)


# -- traced-run skeleton ------------------------------------------------------

def traced_run(args, ops: List[Dict], expected):
    workload = args.workload
    off, rec = SpanRecorder(False), SpanRecorder(True)
    check = measure.Correctness(ops)
    driver = measure.make_driver(workload, ops)
    values: Values = {}
    notes: List[str] = []
    observed: List[Tuple[Dict, Any, Dict]] = []

    def observer(op: Dict, backend: Any, extra: Dict) -> None:
        observed.append((op, _observe(backend), extra))

    with driver:
        check.add(driver.warm_up(off, args.quick))
        cpu0 = driver.cpu_seconds()
        refs = [driver.run_pass(off)
                for _ in range(1 if args.quick else REFERENCE_PASSES)]
        cpu_s = driver.cpu_seconds() - cpu0
        traced = driver.run_pass(rec, traced=True, observer=observer)
        for done in refs + [traced]:
            check.add(done.results)

        ref = measure.summarise(refs)
        ref_events = sum(e for p in refs for e, _ in p.units)
        values["host.events_per_s_median"] = ref["events_per_s_median"]
        values["host.pass_spread"] = ref["pass_spread"]
        values["host.cpu_s_per_mevent"] = cpu_s / (ref_events / 1e6)
        values["obs.telemetry_overhead"] = (
            _pass_cost(traced) / min(_pass_cost(p) for p in refs))
        values["host.import_s"] = _import_seconds()

        rec.check_nesting()
        self_s = rec.self_seconds()
        values["host.bench_self_ms"] = self_s.get(BENCH_LAYER, 0.0) * 1e3
        trace_path = _write_trace(workload, rec)

        LAYER_PROBES[workload](values, driver=driver, ops=ops, refs=refs,
                               traced=traced, rec=rec, observed=observed,
                               seed=args.seed, quick=args.quick, notes=notes)

    correct = check.close(expected)
    missing = [m.name for m in catalog.LAYER_METRICS
               if workload in m.workloads and m.name not in values]
    if missing:
        raise RuntimeError(f"traced run measured no value for {missing}")
    # The driver wants every per-layer metric on every workload; one that
    # this workload's layers cannot produce reads 0 and prints as "-".
    metrics = {m.name: (float(values.get(m.name, 0.0)), m.unit)
               for m in catalog.LAYER_METRICS}
    host = {
        "passes": len(refs),
        "events_per_pass": ref["events_per_pass"],
        "events_per_s_median": ref["events_per_s_median"],
        "pass_spread": ref["pass_spread"],
        "sim_digest": check.digest(),
        "trace_file": os.path.relpath(trace_path, program.REPO),
        "layer_self_s": {k: round(v, 6) for k, v in sorted(self_s.items())},
        "notes": notes,
    }
    return correct, check, metrics, host


def _observe(backend: Any) -> Dict[str, Any]:
    """What a finished machine/backend exposes, copied while it is alive."""
    snapshot = collect_snapshot(backend) or {}
    return {
        "stats": program.stats_facts(backend.stats),
        "counters": dict(snapshot.get("counters", {})),
        "protocol": dict(getattr(backend, "protocol", {}) or {}),
    }


def _import_seconds() -> float:
    """Fresh interpreter importing the program (fastest of two)."""
    env = dict(os.environ, PYTHONPATH=program.SRC)
    return min(_timed(subprocess.run, [sys.executable, "-c", "import repro"],
                      env=env, check=True)[0] for _ in range(2))


def _write_trace(workload: str, rec: SpanRecorder) -> str:
    doc = rec.to_chrome(f"benchmarks/e2e traced pass: {workload}")
    validate_chrome_trace(doc)
    path = os.path.join(program.OUT, f"trace_{workload}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def print_layer_table(workload: str, metrics: Dict[str, Tuple[float, str]]
                      ) -> None:
    """The metrics this workload's layers produce; the rest read 0 in
    the JSON line and are measured by another workload's traced run."""
    print("\nper-layer (traced run)")
    print(f"  {'layer':<10} {'metric':<34} {'value':>14} {'unit':<9} moves ->")
    elsewhere = 0
    for m in catalog.LAYER_METRICS:
        if workload not in m.workloads:
            elsewhere += 1
            continue
        value, unit = metrics[m.name]
        print(f"  {catalog.layer_of(m.name):<10} {m.name:<34} "
              f"{value:>14.6g} {unit:<9} {m.moves}")
    print(f"  ({elsewhere} more per-layer metrics belong to other workloads)")


# -- engine workloads ---------------------------------------------------------

#: cProfile self time is attributed by source path below ``repro/``.
_SELF_SHARE_PATHS = {
    "workloads.self_share": "repro/workloads/",
    "core.engine.self_share": "repro/core/engine.py",
    "core.fabric.self_share": "repro/core/fabric.py",
    "core.sync.self_share": "repro/core/sync.py",
    "network.self_share": "repro/network/",
    "network.routing.self_share": "repro/network/routing.py",
    "memory.self_share": "repro/memory/",
    "runtime.self_share": "repro/runtime/",
    "timing.self_share": "repro/timing/",
}

_PHASES = ("execute", "service", "rescue", "shadow_fixpoint")


def _profile_self_shares(driver) -> Values:
    """One pass under cProfile; share of all profiled self time spent in
    each package (cProfile inflates call-heavy code: find candidates
    with it, measure with it off)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        driver.run_pass(SpanRecorder(False))
    finally:
        profiler.disable()
    by_path: Counter = Counter()
    total = 0.0
    for (filename, _line, _fn), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        total += tottime
        by_path[filename.replace(os.sep, "/")] += tottime
    return {name: sum(t for path, t in by_path.items() if needle in path)
            / total for name, needle in _SELF_SHARE_PATHS.items()}


def _engine_layers(values: Values, *, driver, traced, rec, observed,
                   **_unused) -> None:
    values["arch.build_ms"] = rec.total_seconds("arch.build_machine") * 1e3
    values["workloads.generate_ms"] = (
        rec.total_seconds("workloads.get_workload") * 1e3)
    values["workloads.verify_ms"] = (
        rec.total_seconds("workloads.verify") * 1e3)
    run_s = rec.total_seconds("core.Machine.run")
    events = sum(e for e, _ in traced.units)
    values["core.run_s"] = run_s
    values["core.us_per_event"] = run_s / events * 1e6

    stats: Counter = Counter()
    counters: Counter = Counter()
    samples: Counter = Counter()
    for _op, seen, extra in observed:
        stats.update({k: v for k, v in seen["stats"].items()
                      if k != "completion_vtime"})
        counters.update(seen["counters"])
        samples.update(extra["profile"]["samples"])
    total_samples = sum(samples.values())
    values["obs.profile_samples"] = total_samples
    for phase in _PHASES:
        values[f"core.phase.{phase}_share"] = (
            samples.get(phase, 0) / total_samples if total_samples else 0.0)
    values["core.actions"] = stats["actions"]
    values["core.messages"] = stats["total_messages"]
    values["core.context_switches"] = stats["context_switches"]
    values["core.drift_stalls"] = stats["drift_stalls"]
    values["core.shadow_recomputes"] = stats["shadow_recomputes"]
    values["core.fabric_commits"] = counters["fabric.commits"]
    values["network.noc_messages"] = stats["noc_messages"]
    values["network.noc_hops"] = stats["noc_total_hops"]
    values["network.contention_cycles"] = stats["noc_contention_cycles"]
    values["memory.mem_accesses"] = stats["mem_accesses"]
    values["memory.cell_accesses"] = stats["cell_accesses"]
    values["memory.remote_cell_accesses"] = stats["remote_cell_accesses"]
    values["runtime.tasks_started"] = stats["tasks_started"]
    values["runtime.spawn_remote"] = counters["runtime.spawn_remote"]
    values["runtime.spawn_denied"] = counters["runtime.spawn_denied"]
    values.update(_profile_self_shares(driver))


def _serial_64_layers(values: Values, *, ops, quick, **common) -> None:
    _engine_layers(values, **common)
    _checkpoint_layers(values, ops)


def _serial_1024_layers(values: Values, *, ops, refs, **common) -> None:
    """Engine layers plus the Fig. 7 cost law as one number: the
    power-law exponent of a pass's wall time against simulated cores."""
    _engine_layers(values, **common)
    sizes = sorted({ops[0]["n_cores"], 64, 256})
    walls = []
    for n_cores in sizes:
        if n_cores == ops[0]["n_cores"]:
            walls.append(min(sum(t for _, t in p.units) for p in refs))
            continue
        driver = measure.DirectDriver([dict(op, n_cores=n_cores)
                                       for op in ops])
        done = driver.run_pass(SpanRecorder(False))
        if not all(res.ok for _, res in done.results):
            raise RuntimeError(f"cost-ladder pass failed at {n_cores} cores")
        walls.append(sum(t for _, t in done.units))
    values["core.cost_exponent"] = statistics.linear_regression(
        [math.log(n) for n in sizes], [math.log(w) for w in walls]).slope


# -- checkpoint (direct calls on the serial_64 ops) ---------------------------

def _checkpoint_layers(values: Values, ops: List[Dict]) -> None:
    t: Dict[str, List[float]] = {k: [] for k in (
        "capture", "encode", "decode", "save", "load", "verify", "bytes")}
    replay_s = straight_s = checkpointed_s = 0.0
    with service.tmp_dir("ckpt") as tmp:
        path = os.path.join(tmp, "probe.ckpt")
        for op in ops:
            cfg = program.PRESETS[op["memory"]](op["n_cores"])
            specs = [program.WorkloadSpec(
                op["benchmark"], scale=op["scale"], seed=op["seed"],
                memory=op["memory"], root_core=0)]
            wall, straight = _timed(run_straight, cfg, specs)
            straight_s += wall
            every = straight["completion"] / (SNAPSHOTS_PER_OP + 1)

            # The same segment loop run_serial_checkpointed drives, with
            # every public step of a snapshot timed on its own.
            machine = program.build_machine(cfg)
            k = every
            machine.run_roots([(specs[0].resolve().root, (), 0)],
                              stop_at_vtime=k)
            taken = 0
            while machine.live_tasks > 0 and taken < SNAPSHOTS_PER_OP:
                wall, state = _timed(capture_machine_state, machine)
                t["capture"].append(wall)
                wall, blob = _timed(encode, state)
                t["encode"].append(len(blob) / wall)
                t["decode"].append(len(blob) / _timed(decode, blob)[0])
                snap = make_snapshot("serial", cfg, specs,
                                     {"kind": "vtime", "value": k}, [state])
                t["save"].append(_timed(save_snapshot, snap, path)[0])
                t["bytes"].append(os.path.getsize(path))
                wall, loaded = _timed(load_snapshot, path)
                t["load"].append(wall)
                t["verify"].append(_timed(
                    verify_machine_state, loaded.states[0], state)[0])
                taken += 1
                while k <= machine.fabric.max_vtime:
                    k += every
                machine.resume_run(stop_at_vtime=k)
            if taken == 0:
                raise RuntimeError("op finished before its first snapshot")
            # Restore = rebuild, replay 0 -> k, verify bit-identical, run on.
            wall, resumed = _timed(resume_serial, loaded)
            replay_s += wall
            if resumed["stats_vt"] != straight["stats_vt"]:
                raise RuntimeError("resumed run differs from straight run")
            checkpointed_s += _timed(
                run_serial_checkpointed, cfg, specs, every,
                lambda snap: save_snapshot(snap, path))[0]
    values["checkpoint.capture_ms"] = statistics.median(t["capture"]) * 1e3
    values["checkpoint.encode_mb_s"] = statistics.median(t["encode"]) / 1e6
    values["checkpoint.decode_mb_s"] = statistics.median(t["decode"]) / 1e6
    values["checkpoint.snapshot_bytes"] = statistics.median(t["bytes"])
    values["checkpoint.save_ms"] = statistics.median(t["save"]) * 1e3
    values["checkpoint.load_ms"] = statistics.median(t["load"]) * 1e3
    values["checkpoint.verify_ms"] = statistics.median(t["verify"]) * 1e3
    values["checkpoint.resume_replay_s"] = replay_s
    values["checkpoint.run_overhead"] = checkpointed_s / straight_s


# -- sharded workload ---------------------------------------------------------

def _fenced_serial_wall(op: Dict) -> float:
    """The op on the serial backend with the same fence: spec to
    verified result, like the sharded op it is compared with."""
    t0 = time.perf_counter()
    specs = program.sharded_specs(op)
    machine = program.build_machine(program.sharded_config(op, "serial"))
    results = machine.run_roots(
        [(spec.resolve().root, (), spec.root_core) for spec in specs])
    program.verify_sharded(op, specs, results, SpanRecorder(False))
    return time.perf_counter() - t0


def _sharded_layers(values: Values, *, ops, refs, rec, observed,
                    **_unused) -> None:
    values["arch.build_ms"] = rec.total_seconds("arch.build_backend") * 1e3
    run_s = rec.total_seconds("parallel.run_workloads")
    protocols = [seen["protocol"] for _op, seen, _extra in observed]
    rounds = sum(p["rounds"] for p in protocols)
    values["parallel.run_s"] = run_s
    values["parallel.rounds"] = rounds
    values["parallel.us_per_round"] = run_s / rounds * 1e6
    values["parallel.rescues"] = sum(p["rescues"] for p in protocols)
    values["parallel.waivers"] = sum(p["waivers"] for p in protocols)
    values["parallel.window_peak"] = max(p["window_peak"] for p in protocols)
    values["parallel.bytes_shipped"] = sum(p["bytes_shipped"]
                                           for p in protocols)
    values["parallel.parallel_efficiency"] = statistics.mean(
        p["parallel_efficiency"] for p in protocols)
    sharded_s = min(sum(t for _, t in p.units) for p in refs)
    values["parallel.overhead_vs_serial"] = (
        sharded_s / sum(_fenced_serial_wall(op) for op in ops))


# -- service workloads --------------------------------------------------------

def _percentile(sorted_values: List[float], share: float) -> float:
    return sorted_values[min(len(sorted_values) - 1,
                             int(share * len(sorted_values)))]


def _service_counters(values: Values, counters: Dict[str, float]) -> None:
    values["service.simulations_started"] = counters.get(
        "service.simulations_started", 0)
    values["service.cache_hits"] = counters.get("service.cache_hits", 0)
    values["service.rejected"] = counters.get("service.rejected_full", 0)


def _sweep(seed: int, quick: bool, store_dir: str):
    """(expand seconds, run seconds, outcome) of the 12-cell DSE plan."""
    expand_s, plan = _timed(expand_sweep, inputs.sweep_spec(seed, quick))
    run_s, outcome = _timed(run_sweep, plan, store_dir=store_dir, jobs=1)
    if outcome.execution["cells_failed"]:
        raise RuntimeError("DSE probe: a sweep cell failed")
    return expand_s, run_s, outcome


def _cold_layers(values: Values, *, driver, ops, seed, quick,
                 **_unused) -> None:
    # One client at a time: latency without queueing behind the other.
    alone = driver.run_pass(SpanRecorder(False), connections=1)
    if not all(res.ok for _, res in alone.results):
        raise RuntimeError("one-client miss pass had failed ops")
    _service_counters(values, driver.last_counters)
    latencies = sorted(res.wall for _, res in alone.results)
    values["service.miss_p50_ms"] = statistics.median(latencies) * 1e3
    values["service.miss_max_ms"] = latencies[-1] * 1e3

    off = SpanRecorder(False)
    direct = {op["id"]: program.run_direct(dict(op, kind="direct"), off)
              for op in ops}
    if not all(res.ok for res in direct.values()):
        raise RuntimeError("direct twin of a service op failed")
    values["service.miss_overhead"] = (
        sum(latencies) / sum(res.wall for res in direct.values()))

    specs = [inputs.service_spec(op) for op in ops]
    values["service.resolve_us"] = statistics.median(
        _median_call_s(lambda s=s: resolve_spec(s), 25) for s in specs) * 1e6

    # The miss path's own pieces, called directly: a run with the
    # harness Tracer attached, its digest, the result document, the put.
    with service.tmp_dir("layers") as tmp:
        store = ResultStore(os.path.join(tmp, "store"))
        ratios, digest_s, record_s, put_s = [], [], [], []
        for benchmark in sorted({op["benchmark"] for op in ops}):
            op = next(o for o in ops if o["benchmark"] == benchmark)
            resolved = resolve_spec(inputs.service_spec(op))
            workload = program.get_workload(
                op["benchmark"], scale=op["scale"], seed=op["seed"],
                memory=op["memory"])
            plain = program.build_machine(resolved.cfg)
            plain_s = _timed(plain.run, workload.root)[0]
            machine = program.build_machine(resolved.cfg)
            tracer = Tracer(machine)
            wall, result = _timed(machine.run, workload.root)
            ratios.append(wall / plain_s)
            wall, digest = _timed(lambda: trace_digest(tracer.export()))
            digest_s.append(wall)
            wall, doc = _timed(run_record, result, machine.stats,
                               trace_digest=digest, verified=True)
            record_s.append(wall)
            put_s.append(_median_call_s(
                lambda: store.put(resolved.spec_hash, doc), 5))
        values["harness.tracer_overhead"] = statistics.mean(ratios)
        values["harness.trace_digest_ms"] = statistics.mean(digest_s) * 1e3
        values["harness.run_record_ms"] = statistics.mean(record_s) * 1e3
        values["service.store_put_ms"] = statistics.mean(put_s) * 1e3

        expand_s, run_s, outcome = _sweep(seed, quick,
                                          os.path.join(tmp, "sweep"))
        values["dse.expand_ms"] = expand_s * 1e3
        values["dse.cells_per_s_cold"] = (
            outcome.execution["cells_ok"] / run_s)
        values["dse.frame_bytes"] = len(frame_json(outcome.frame).encode())
        points = inputs.pareto_points(seed)
        values["dse.pareto_ms"] = _timed(
            non_dominated, points, ("max", "min", "min"))[0] * 1e3


def _warm_layers(values: Values, *, driver, ops, refs, traced, seed, quick,
                 notes, **_unused) -> None:
    _service_counters(values, driver.server.counters())
    latencies = sorted(res.wall for p in refs + [traced]
                       for _, res in p.results)
    n = len(latencies)
    # The highest percentile with at least ten samples beyond it (p99
    # needs 1000 hits; a traced run collects a few hundred).
    tail = min(0.99, max(0.5, 1.0 - 10.0 / n))
    values["service.hit_p50_ms"] = statistics.median(latencies) * 1e3
    values["service.hit_p99_ms"] = _percentile(latencies, tail) * 1e3
    notes.append(f"service.hit_p99_ms is p{tail * 100:.1f} of {n} hits")

    # The hit path's own pieces, called directly on the live store.
    store = ResultStore(driver.server.store)
    resolved = [resolve_spec(inputs.service_spec(op)) for op in ops]
    values["service.store_get_us"] = statistics.median(
        _median_call_s(lambda r=r: store.get_bytes(r.spec_hash), 25)
        for r in resolved) * 1e6
    queue = JobQueue(store, workers=1)
    try:
        submit_s = []
        for spec in resolved * 5:
            wall, job = _timed(queue.submit, spec)
            if not job.cache_hit:
                raise RuntimeError("JobQueue.submit missed a filled store")
            submit_s.append(wall)
        values["service.submit_hit_us"] = statistics.median(submit_s) * 1e6
    finally:
        queue.shutdown()

    with service.tmp_dir("sweep") as tmp:
        _sweep(seed, quick, tmp)                     # fill, untimed
        _expand_s, run_s, outcome = _sweep(seed, quick, tmp)
        if outcome.execution["simulations_started"]:
            raise RuntimeError("warm sweep simulated a cell")
        values["dse.cells_per_s_warm"] = (
            outcome.execution["cells_ok"] / run_s)


LAYER_PROBES = {
    SERIAL_64: _serial_64_layers,
    SERIAL_1024: _serial_1024_layers,
    SHARDED: _sharded_layers,
    COLD: _cold_layers,
    WARM: _warm_layers,
}
