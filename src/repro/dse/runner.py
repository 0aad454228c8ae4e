"""Fleet-scale sweep execution over the service job queue.

:func:`run_sweep` takes an expanded :class:`~repro.dse.space.SweepPlan`
and runs every feasible cell **through the existing service machinery**
— the bounded worker pool and content-hash result cache of
:mod:`repro.service.queue` — rather than a private executor.  That
single decision buys the fleet properties for free:

* **cache-first execution** — a cell whose content hash is already in
  the store completes instantly with zero simulation work, so re-running
  a sweep after an interrupt (or after changing one axis) only simulates
  the new hashes; the ``service.simulations_started`` counter is the
  proof, and tests pin it;
* **concurrency** — ``--jobs N`` is the worker-pool width: N cells
  simulate at once, each in a process of its own, on N host cores;
* **failure isolation** — a crashed or timed-out cell fails *that* job;
  the sweep records the cell as ``failed`` and carries on;
* **de-duplication** — two cells that resolve to the same semantic
  config share one simulation.

The **result frame** is a plain-JSON document ordered by cell index —
deterministic regardless of completion order, worker count or cache
state.  Host-dependent fields (wall clock, telemetry) never enter it:
re-running the same sweep must produce byte-identical frames
(``frame_json``), which is what makes a frame diffable and cacheable.
Execution accounting (cache hits, wall time) lives in the separate
``execution`` dict of the :class:`SweepOutcome`.
"""

from __future__ import annotations

import dataclasses
import os
import queue as _queue_mod
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

from ..harness.ascii_chart import render_scatter
from ..harness.report import format_table
from ..obs.registry import MetricsRegistry
from ..service.queue import Job, JobQueue, QueueFullError
from ..service.store import ResultStore
from .models import OBJECTIVES, cell_metrics
from .pareto import non_dominated
from .space import SweepPlan, sweep_summary

#: Result-frame schema version (bumped on incompatible layout changes).
FRAME_SCHEMA = 1

#: Default per-cell wall-clock limit.
DEFAULT_CELL_TIMEOUT_S = 300.0


@dataclasses.dataclass
class SweepOutcome:
    """What one sweep run produced.

    ``frame`` is the deterministic result document (byte-identical
    across re-runs of the same plan); ``execution`` is the run's
    host-side accounting: ``simulations_started`` / ``cache_hits``
    deltas of the metrics registry, per-status cell counts, worker
    count and wall seconds.
    """

    frame: Dict[str, Any]
    execution: Dict[str, Any]


def run_sweep(plan: SweepPlan, store_dir: Optional[str] = None,
              jobs: int = 2, queue: Optional[JobQueue] = None,
              fresh: bool = False,
              timeout_s: float = DEFAULT_CELL_TIMEOUT_S) -> SweepOutcome:
    """Execute every feasible cell of ``plan`` and build its frame.

    Either pass ``store_dir`` (a private :class:`JobQueue` with ``jobs``
    workers is created over it and drained afterwards) or an existing
    ``queue`` (the service endpoint does — the sweep then shares the
    service's pool, cache and counters).  ``fresh=True`` evicts the
    cells' cached results first, forcing re-simulation; the default is
    resume semantics — only hashes missing from the store simulate.

    Example::

        import tempfile
        from repro.dse import expand_sweep, run_sweep
        plan = expand_sweep({
            "base": {"workload": {"benchmark": "quicksort",
                                  "scale": "tiny"}},
            "axes": {"arch.n_cores": [9, 16]},
        })
        outcome = run_sweep(plan, store_dir=tempfile.mkdtemp(), jobs=2)
        assert len(outcome.frame["cells"]) == 2
    """
    own_queue = queue is None
    if own_queue:
        if store_dir is None:
            raise ValueError("run_sweep needs a store_dir or a queue")
        registry = MetricsRegistry()
        queue = JobQueue(ResultStore(store_dir), workers=jobs,
                         depth=max(64, plan.n_cells),
                         default_timeout_s=timeout_s, registry=registry)
    else:
        registry = queue.registry
    t0 = time.time()
    sims_before = registry.counters["service.simulations_started"]
    hits_before = registry.counters["service.cache_hits"]
    try:
        if fresh:
            _evict_cells(queue.store, plan)
        cell_jobs = _submit_cells(plan, queue, timeout_s)
        _await_cells(cell_jobs, timeout_s)
        frame = build_frame(plan, cell_jobs)
    finally:
        if own_queue:
            queue.shutdown(drain=True, timeout=timeout_s)
    statuses = [c["status"] for c in frame["cells"]]
    execution = {
        "jobs": jobs if own_queue else None,
        "wall_seconds": round(time.time() - t0, 6),
        "simulations_started":
            registry.counters["service.simulations_started"] - sims_before,
        "cache_hits":
            registry.counters["service.cache_hits"] - hits_before,
        "cells_ok": statuses.count("ok"),
        "cells_pruned": statuses.count("pruned"),
        "cells_failed": statuses.count("failed"),
    }
    return SweepOutcome(frame=frame, execution=execution)


def _evict_cells(store: ResultStore, plan: SweepPlan) -> None:
    """Drop the plan's cells from the result cache (``--fresh``)."""
    for cell in plan.feasible_cells():
        try:
            os.remove(store.path_for(cell.spec.spec_hash))
        except OSError:
            pass


def _submit_cells(plan: SweepPlan, queue: JobQueue,
                  timeout_s: float) -> Dict[int, Job]:
    """Submit every feasible cell; returns cell index -> job.

    A full pool FIFO is backpressure, not failure: submission retries
    until a slot frees up (the workers are draining the same queue), so
    a sweep larger than the queue depth still completes.
    """
    out: Dict[int, Job] = {}
    deadline = time.monotonic() + timeout_s * max(1, len(plan.cells))
    for cell in plan.feasible_cells():
        while True:
            try:
                out[cell.index] = queue.submit(cell.spec)
                break
            except QueueFullError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
    return out


def _await_cells(cell_jobs: Dict[int, Job], timeout_s: float) -> None:
    """Block until every submitted cell reaches a terminal state."""
    for job in cell_jobs.values():
        # Each job enforces its own wall-clock limit; the extra margin
        # here only covers queueing delay behind other cells.
        job.wait(timeout_s * max(1, len(cell_jobs)))


def build_frame(plan: SweepPlan,
                cell_jobs: Dict[int, Job]) -> Dict[str, Any]:
    """The deterministic result frame of one executed sweep.

    Cells appear in expansion-index order whatever order they completed
    in.  Only spec-determined content is included: per-cell params, spec
    hash, status, static cost, simulation metrics and ``stats_vt``.
    Host wall clock, telemetry and trace digests are deliberately
    excluded — cached documents written by other clients may or may not
    carry them, and the frame must not depend on who simulated a cell.
    """
    cells: List[Dict[str, Any]] = []
    for cell in plan.cells:
        entry: Dict[str, Any] = {
            "index": cell.index,
            "spec_hash": cell.spec.spec_hash,
            "params": dict(cell.params),
            "cost": cell.cost,
        }
        if cell.pruned:
            entry["status"] = "pruned"
            entry["violations"] = list(cell.violations)
        else:
            job = cell_jobs.get(cell.index)
            if job is None or not job.finished:
                entry["status"] = "failed"
                entry["error"] = {"type": "timeout",
                                  "message": "cell never reached a "
                                             "terminal state"}
            elif job.state == "done":
                doc = job.document  # reads the store
                if doc is None:
                    entry["status"] = "failed"
                    entry["error"] = {"type": "result_missing",
                                      "message": "stored result was removed "
                                                 "from the result store"}
                else:
                    entry["status"] = "ok"
                    entry["metrics"] = cell_metrics(
                        cell.cost, float(doc["result"]["work_vtime"]))
                    entry["stats_vt"] = doc.get("stats_vt", {})
            else:
                entry["status"] = "failed"
                entry["error"] = dict(job.error or
                                      {"type": "unknown", "message": ""})
        cells.append(entry)

    senses = [OBJECTIVES[name][0] for name in plan.objectives]
    keys = [OBJECTIVES[name][1] for name in plan.objectives]
    ok_cells = [c for c in cells if c["status"] == "ok"]
    points = [[c["metrics"][k] for k in keys] for c in ok_cells]
    frontier = [ok_cells[i]["index"]
                for i in non_dominated(points, senses)]
    return {
        "schema": FRAME_SCHEMA,
        "sweep": sweep_summary(plan),
        "cells": cells,
        "pareto": {
            "objectives": list(plan.objectives),
            "senses": senses,
            "cells": frontier,
        },
    }


# -- exports ------------------------------------------------------------------

def frame_json(frame: Dict[str, Any]) -> str:
    """Canonical JSON serialization of a frame (sorted keys; the byte
    stream re-runs are compared against)."""
    import json

    return json.dumps(frame, sort_keys=True, indent=2) + "\n"


def frame_csv(frame: Dict[str, Any]) -> str:
    """Flat CSV export of a frame: one row per cell, stable columns."""
    axes = sorted(frame["sweep"]["axes"])
    metric_keys = ["work_vtime", "perf", "peak_power_w", "area_mm2",
                   "energy"]
    frontier = set(frame["pareto"]["cells"])
    columns = (["index", "status", "pareto", "spec_hash"] + axes
               + metric_keys)
    lines = [",".join(columns)]
    for cell in frame["cells"]:
        metrics = cell.get("metrics", {})
        row = [str(cell["index"]), cell["status"],
               "1" if cell["index"] in frontier else "0",
               cell["spec_hash"][:12]]
        row += [str(cell["params"].get(a, "")) for a in axes]
        row += [f"{metrics[k]:.6g}" if k in metrics else ""
                for k in metric_keys]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def pareto_chart(frame: Dict[str, Any], width: int = 56,
                 height: int = 16) -> str:
    """ASCII scatter of the sweep: every cell plus the Pareto frontier.

    The first two objectives give the axes (default perf vs. power);
    frontier cells are drawn with their own glyph over the cloud.
    """
    objectives = frame["pareto"]["objectives"]
    if len(objectives) < 2:
        return "(pareto chart needs at least two objectives)"
    x_key = OBJECTIVES[objectives[1]][1]
    y_key = OBJECTIVES[objectives[0]][1]
    frontier = set(frame["pareto"]["cells"])
    cloud, front = [], []
    for cell in frame["cells"]:
        if cell["status"] != "ok":
            continue
        point = (cell["metrics"][x_key], cell["metrics"][y_key])
        (front if cell["index"] in frontier else cloud).append(point)
    return render_scatter(
        {"cell": cloud, "pareto": front},
        title=(f"{frame['sweep']['name']}: {objectives[0]} vs "
               f"{objectives[1]} ({len(front)} non-dominated of "
               f"{len(cloud) + len(front)} cells)"),
        x_label=x_key, y_label=y_key, width=width, height=height)


def frontier_table(frame: Dict[str, Any]) -> str:
    """Text table of the Pareto-optimal cells (index order)."""
    axes = sorted(frame["sweep"]["axes"])
    keys = [OBJECTIVES[name][1] for name in frame["pareto"]["objectives"]]
    frontier = set(frame["pareto"]["cells"])
    rows = []
    for cell in frame["cells"]:
        if cell["index"] not in frontier:
            continue
        rows.append([cell["index"]]
                    + [cell["params"].get(a, "") for a in axes]
                    + [cell["metrics"][k] for k in keys])
    if not rows:
        return "(empty Pareto frontier: no cell completed)"
    return format_table(["cell"] + axes + keys, rows,
                        title="Pareto frontier")


# -- service-side sweep orchestration ----------------------------------------

class SweepRun:
    """One submitted sweep and its lifecycle (service-side).

    States: ``running -> done | failed``.  ``outcome`` holds the
    :class:`SweepOutcome` once done.
    """

    def __init__(self, sweep_id: str, plan: SweepPlan) -> None:
        self.sweep_id = sweep_id
        self.plan = plan
        self.state = "running"
        self.outcome: Optional[SweepOutcome] = None
        self.error: Optional[Dict[str, str]] = None
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        self._done = threading.Event()

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def summary(self) -> Dict[str, Any]:
        """JSON-safe lifecycle summary (no frame payload)."""
        body = {
            "sweep_id": self.sweep_id,
            "state": self.state,
            "sweep": sweep_summary(self.plan),
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if self.outcome is not None:
            body["execution"] = self.outcome.execution
        return body


class SweepManager:
    """Runs sweeps against a shared service :class:`JobQueue`.

    Each submission expands on the caller's thread (validation errors
    surface as HTTP 400) and executes on a daemon thread through the
    *service's own* worker pool — a sweep is just many jobs, subject to
    the same cache, dedupe and timeout rules as individual submissions.
    A sweep whose hash matches one still running returns that run
    instead of double-submitting every cell.
    """

    def __init__(self, queue: JobQueue,
                 timeout_s: float = DEFAULT_CELL_TIMEOUT_S,
                 max_sweeps_indexed: int = 256) -> None:
        self.queue = queue
        self.timeout_s = timeout_s
        self.max_sweeps_indexed = max_sweeps_indexed
        self._runs: Dict[str, SweepRun] = {}
        self._order: List[str] = []
        self._live_by_hash: Dict[str, SweepRun] = {}
        self._lock = threading.Lock()

    def submit(self, plan: SweepPlan) -> SweepRun:
        """Start (or join) the run of one expanded sweep."""
        counters = self.queue.registry.counters
        with self._lock:
            live = self._live_by_hash.get(plan.sweep_hash)
            if live is not None:
                return live
            run = SweepRun(f"{plan.short_id}-{uuid.uuid4().hex[:8]}", plan)
            self._runs[run.sweep_id] = run
            self._order.append(run.sweep_id)
            while len(self._order) > self.max_sweeps_indexed:
                victim = self._runs.get(self._order[0])
                if victim is not None and not victim.finished:
                    break
                self._order.pop(0)
                if victim is not None:
                    self._runs.pop(victim.sweep_id, None)
            self._live_by_hash[plan.sweep_hash] = run
            counters["service.sweeps_submitted"] += 1
            counters["service.sweep_cells"] += plan.n_cells
        threading.Thread(target=self._execute, args=(run,),
                         name=f"repro-sweep-{run.sweep_id}",
                         daemon=True).start()
        return run

    def get(self, sweep_id: str) -> Optional[SweepRun]:
        with self._lock:
            return self._runs.get(sweep_id)

    def runs(self) -> List[SweepRun]:
        with self._lock:
            return [self._runs[sid] for sid in self._order
                    if sid in self._runs]

    def _execute(self, run: SweepRun) -> None:
        counters = self.queue.registry.counters
        try:
            run.outcome = run_sweep(run.plan, queue=self.queue,
                                    timeout_s=self.timeout_s)
            run.state = "done"
            counters["service.sweeps_completed"] += 1
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            run.state = "failed"
            run.error = {"type": type(exc).__name__,
                         "message": str(exc) or repr(exc)}
            counters["service.sweeps_failed"] += 1
        finally:
            run.finished_at = time.time()
            with self._lock:
                if self._live_by_hash.get(run.plan.sweep_hash) is run:
                    del self._live_by_hash[run.plan.sweep_hash]
            run._done.set()


__all__ = ["DEFAULT_CELL_TIMEOUT_S", "FRAME_SCHEMA", "SweepManager",
           "SweepOutcome", "SweepRun", "build_frame", "frame_csv",
           "frame_json", "frontier_table", "pareto_chart", "run_sweep"]
