"""Run one op against the program's public API and check what comes back.

An *op* is one user-visible request from spec to verified result.  The
direct flavours live here (serial: ``get_workload`` + ``build_machine`` +
``Machine.run`` + ``verify``; sharded: ``build_backend`` +
``run_workloads`` + ``verify``); the HTTP flavour is in ``service.py``.
Every call into the program sits inside a span, so the same code serves
the timed passes (recorder off) and the traced pass (recorder on).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
SRC = os.path.join(REPO, "src")
#: Everything the benchmark writes (traces, temp stores, selfcheck).
OUT = os.path.join(HERE, "out")

if not os.path.isdir(os.path.join(SRC, "repro")):
    # Never fall back to some other installed copy of the program.
    raise ImportError(f"program source tree not found at {SRC}")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.arch import (build_backend, build_machine, dist_mesh,  # noqa: E402
                        numa_mesh, shared_mesh)
from repro.obs import profile_phases  # noqa: E402
from repro.parallel import WorkloadSpec  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

from spans import BENCH_LAYER, SpanRecorder  # noqa: E402

PRESETS = {"shared": shared_mesh, "numa": numa_mesh,
           "distributed": dist_mesh}

#: Telemetry spec of the traced pass (counters + phase sampling).
TRACED_TELEMETRY = "counters,profile"


class OpResult(NamedTuple):
    ok: bool
    events: int        # simulated events delivered (0 when the op failed)
    facts: Any         # deterministic facts feeding sim_digest
    wall: float        # seconds, spec to verified result
    error: str = ""


#: Called as ``observer(op, backend, extra)`` right after a successful
#: traced op, while the machine/backend object is still alive.
Observer = Callable[[Dict, Any, Dict], None]


def stats_facts(stats) -> Dict[str, Any]:
    """The deterministic counters of a run: the ``stats_vt`` block of a
    result document (``SimStats.as_dict`` minus the host wall clock)."""
    facts = stats.as_dict()
    facts.pop("wall_seconds", None)
    return facts


def events_of(stats_vt: Dict[str, Any]) -> int:
    """Simulated events of a run: actions executed + messages emitted."""
    return int(stats_vt["actions"]) + int(stats_vt["total_messages"])


def sim_digest(facts_in_op_order: List[Any]) -> str:
    """sha256 over the canonical JSON of every op's facts, in op order."""
    blob = json.dumps(facts_in_op_order, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _failed(t0: float) -> OpResult:
    return OpResult(False, 0, None, time.perf_counter() - t0,
                    traceback.format_exc(limit=6))


def run_direct(op: Dict, rec: SpanRecorder, traced: bool = False,
               observer: Optional[Observer] = None) -> OpResult:
    """One serial op.  ``traced`` switches the program's own telemetry
    on and samples engine phases during the run."""
    t0 = time.perf_counter()
    try:
        with rec.span("op", BENCH_LAYER, op["id"]):
            with rec.span("workloads.get_workload", "workloads"):
                workload = get_workload(op["benchmark"], scale=op["scale"],
                                        seed=op["seed"], memory=op["memory"])
            with rec.span("arch.build_machine", "arch"):
                cfg = PRESETS[op["memory"]](op["n_cores"])
                if traced:
                    cfg = dataclasses.replace(cfg,
                                              telemetry=TRACED_TELEMETRY)
                machine = build_machine(cfg)
            extra: Dict[str, Any] = {}
            with rec.span("core.Machine.run", "core"):
                if traced:
                    result, extra["profile"] = profile_phases(
                        machine.telemetry, machine.run, workload.root)
                else:
                    result = machine.run(workload.root)
            with rec.span("workloads.verify", "workloads"):
                workload.verify(result["output"])
            stats_vt = stats_facts(machine.stats)
            facts = {"work_vtime": result["work_vtime"], "stats": stats_vt}
            if observer is not None:
                observer(op, machine, extra)
        return OpResult(True, events_of(stats_vt), facts,
                        time.perf_counter() - t0)
    except Exception:  # noqa: BLE001 - op boundary: record, keep going
        return _failed(t0)


def sharded_config(op: Dict, backend: str = "sharded", telemetry: str = ""):
    cfg = PRESETS[op["memory"]](op["n_cores"])
    return dataclasses.replace(cfg, shards=op["shards"], backend=backend,
                               telemetry=telemetry)


def sharded_specs(op: Dict) -> List[WorkloadSpec]:
    """One dwarf root per shard region plus a ping/echo pair spanning
    the first and last shard."""
    n, shards = op["n_cores"], op["shards"]
    per_shard = n // shards
    specs = [WorkloadSpec(op["benchmark"], scale=op["scale"],
                          seed=op["seed"] + i, memory=op["memory"],
                          root_core=i * per_shard)
             for i in range(shards)]
    rounds = op["chat_rounds"]
    specs.append(WorkloadSpec("cross_ping", root_core=1,
                              factory="e2e_roots:cross_ping",
                              kwargs={"peer": n - 1, "rounds": rounds}))
    specs.append(WorkloadSpec("cross_echo", root_core=n - 1,
                              factory="e2e_roots:cross_echo",
                              kwargs={"rounds": rounds}))
    return specs


def verify_sharded(op: Dict, specs: List[WorkloadSpec],
                   results: List[Any], rec: SpanRecorder) -> List[Any]:
    """Check every root's output; returns the dwarf roots' work_vtimes."""
    work_vtimes = []
    for spec, result in zip(specs, results):
        if spec.factory:
            if result != op["chat_rounds"]:
                raise AssertionError(
                    f"{spec.benchmark} finished {result!r} rounds, "
                    f"expected {op['chat_rounds']}")
            continue
        with rec.span("workloads.get_workload", "workloads"):
            workload = spec.resolve()
        with rec.span("workloads.verify", "workloads"):
            workload.verify(result["output"])
        work_vtimes.append(result["work_vtime"])
    return work_vtimes


def run_sharded(op: Dict, rec: SpanRecorder, traced: bool = False,
                observer: Optional[Observer] = None) -> OpResult:
    """One op on the sharded multiprocess backend."""
    t0 = time.perf_counter()
    try:
        with rec.span("op", BENCH_LAYER, op["id"]):
            specs = sharded_specs(op)
            with rec.span("arch.build_backend", "arch"):
                backend = build_backend(sharded_config(
                    op, telemetry=TRACED_TELEMETRY if traced else ""))
            with rec.span("parallel.run_workloads", "parallel"):
                results = backend.run_workloads(specs)
            work_vtimes = verify_sharded(op, specs, results, rec)
            stats_vt = stats_facts(backend.stats)
            facts = {"work_vtime": work_vtimes, "stats": stats_vt}
            if observer is not None:
                observer(op, backend, {})
        return OpResult(True, events_of(stats_vt), facts,
                        time.perf_counter() - t0)
    except Exception:  # noqa: BLE001 - op boundary: record, keep going
        return _failed(t0)


RUNNERS = {"direct": run_direct, "sharded": run_sharded}
