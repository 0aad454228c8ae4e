"""Workload drivers and the pass arithmetic shared by both run modes.

A *run* of a workload is P identical *passes* over its op list.  Inside
a pass the smallest interval that can be timed from outside without
overlapping another is a *unit*: one op for the direct workloads (ops
run back to back on one thread), one completion slot for service_cold
(the single-worker server runs the jobs one after another), the whole
request loop for service_warm (hits overlap on the connections).  Each
unit is observed once per pass; see ``summarise`` for how the
observations become ``events_per_s``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import inputs
import service
from catalog import COLD, WARM
from ops import HERE, RUNNERS, Observer, OpResult, sim_digest
from spans import SpanRecorder

#: Length of one fixed-duration pass of the warm service workload.
WARM_PASS_S = 2.0


class Pass(NamedTuple):
    #: (events, seconds) per unit, same length and order on every pass.
    units: List[Tuple[int, float]]
    results: List[Tuple[Dict, OpResult]]


def _run_probe_child(op: Dict) -> float:
    """Seconds from spawning a fresh interpreter to its exit, the op's
    verified result printed."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), json.dumps(op)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return wall


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux: KiB


class DirectDriver:
    """serial_64, serial_1024, sharded_64x2: the program runs in this
    process (and, sharded, in the workers it forks)."""

    def __init__(self, ops: List[Dict]) -> None:
        self.ops = ops

    def __enter__(self) -> "DirectDriver":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def warm_up(self, rec: SpanRecorder,
                quick: bool = False) -> List[Tuple[Dict, OpResult]]:
        """One untimed pass.  Sharded ops warm up at ``medium`` scale: a
        full-scale pass would cost a third of the run's budget, and what
        warms (imports, fork, the shared board) does not depend on it."""
        if quick:
            return []
        ops = self.ops
        if ops[0]["kind"] == "sharded" and ops[0]["scale"] == "paper":
            ops = [inputs.scaled(op, "medium") for op in ops]
            self.run_pass(rec, ops=ops)
            return []   # other inputs: not comparable with the timed ops
        return self.run_pass(rec).results

    def run_pass(self, rec: SpanRecorder, traced: bool = False,
                 observer: Optional[Observer] = None,
                 ops: Optional[List[Dict]] = None) -> Pass:
        units, results = [], []
        for op in (self.ops if ops is None else ops):
            # The last op's machine is cyclic garbage; left to the
            # collector's own schedule it makes peak RSS depend on the
            # order of the ops and on luck.
            gc.collect()
            res = RUNNERS[op["kind"]](op, rec, traced, observer)
            units.append((res.events, res.wall))
            results.append((op, res))
        return Pass(units, results)

    def probe(self) -> float:
        return _run_probe_child(inputs.setup_twin(self.ops))

    def cpu_seconds(self) -> float:
        """CPU used so far by this process and the workers it reaped."""
        return sum(os.times()[:4])

    def peak_rss_mb(self) -> float:
        return max(_maxrss_mb(resource.RUSAGE_SELF),
                   _maxrss_mb(resource.RUSAGE_CHILDREN))


def _probe_service(op: Dict) -> float:
    """Seconds from spawning a server on an empty store to the first
    verified reply (``op``: the tiny twin of the first op).  Stopping
    the server is not timed: its drain polls on a 0.2 s timer, which is
    waiting, not work."""
    t0 = time.perf_counter()
    with service.running_server() as srv:
        conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=120)
        try:
            res = service.post_job(conn, op, SpanRecorder(),
                                   expect_hit=False)
        finally:
            conn.close()
        wall = time.perf_counter() - t0
    if not res.ok:
        raise RuntimeError(f"set-up probe failed: {res.error}")
    return wall


class _ServiceDriver:
    """What the two service workloads share: the program is the server
    process, never this one."""

    def __init__(self, ops: List[Dict]) -> None:
        self.ops = ops

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def probe(self) -> float:
        return _probe_service(inputs.setup_twin(self.ops))

    def peak_rss_mb(self) -> float:
        """Largest server reaped so far (call after the driver exits)."""
        return _maxrss_mb(resource.RUSAGE_CHILDREN)


class ColdDriver(_ServiceDriver):
    """service_cold: every pass starts a server on an empty store, so
    every op is a cache miss.  Only the request loop is timed; starting
    the server is set-up and shows in ``setup_s``."""

    def __init__(self, ops: List[Dict]) -> None:
        super().__init__(ops)
        self.last_counters: Dict[str, float] = {}

    def warm_up(self, rec: SpanRecorder,
                quick: bool = False) -> List[Tuple[Dict, OpResult]]:
        return []   # every pass is cold on purpose

    def run_pass(self, rec: SpanRecorder, traced: bool = False,
                 observer: Optional[Observer] = None,
                 connections: int = service.N_CONNECTIONS) -> Pass:
        with service.running_server() as srv:
            _wall, results, done_at = service.closed_loop(
                srv.port, self.ops, rec, expect_hit=False,
                connections=connections)
            self.last_counters = srv.counters()
        # The server has one worker, so jobs run one after another and
        # each reply marks the end of one job and the start of the next:
        # the k-th completion interval is the time the server spent on
        # the k-th job (the first also carries the cold start).  Units
        # are completion slots, not ops: which of the first two jobs
        # wins the race to the queue may differ from pass to pass.
        starts = [0.0] + done_at[:-1]
        units = [(res.events, at - start)
                 for (_, res), at, start in zip(results, done_at, starts)]
        return Pass(units, results)

    def cpu_seconds(self) -> float:
        """CPU used by the servers reaped so far."""
        times = os.times()
        return times[2] + times[3]


class WarmDriver(_ServiceDriver):
    """service_warm: one server, store filled during warm-up, then
    fixed-duration passes in which every op is a cache hit."""

    def __init__(self, ops: List[Dict], pass_s: float = WARM_PASS_S) -> None:
        super().__init__(ops)
        self.pass_s = pass_s
        self._running = service.running_server()
        self.server: Optional[service.Server] = None

    def __enter__(self) -> "WarmDriver":
        self.server = self._running.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._running.__exit__(*exc)

    def warm_up(self, rec: SpanRecorder,
                quick: bool = False) -> List[Tuple[Dict, OpResult]]:
        """Fill the store: the one pass of misses the hits depend on."""
        _wall, results, _done_at = service.closed_loop(
            self.server.port, self.ops, rec, expect_hit=False)
        return results

    def run_pass(self, rec: SpanRecorder, traced: bool = False,
                 observer: Optional[Observer] = None) -> Pass:
        wall, results, _done_at = service.closed_loop(
            self.server.port, self.ops, rec, expect_hit=True,
            duration_s=self.pass_s)
        events = sum(res.events for _, res in results)
        return Pass([(events, wall)], results)

    def cpu_seconds(self) -> float:
        return self.server.cpu_seconds()


def make_driver(workload: str, ops: List[Dict]):
    if workload == COLD:
        return ColdDriver(ops)
    if workload == WARM:
        return WarmDriver(ops)
    return DirectDriver(ops)


# -- arithmetic ---------------------------------------------------------------

def summarise(passes: List[Pass]) -> Dict[str, float]:
    """Throughput of a run from its passes.

    Interference on a shared host only ever *adds* time, so the fastest
    observation of a unit is the best estimate of its undisturbed cost.
    ``events_per_s`` is the rate at a balanced mix — every unit
    contributing the same number of events:

        events_per_s = U / sum_u min_p(seconds_up / events_up)

    With one unit per pass (service_warm) this is the fastest pass's
    events over its wall time.  With one unit per op it does not
    move when ``--seed`` happens to draw a larger octree or a smaller
    graph, which a plain events/seconds ratio does (README.md: 17 %
    across ten seeds from composition alone).  The median and the
    max/min spread of the passes ride along as ``host.*`` diagnostics.

    A failed observation delivers zero events, so it can never be a
    unit's fastest; a unit that failed on every pass makes the whole
    rate 0.
    """
    n_units = len(passes[0].units)
    best, median, detail = [], [], []
    for u in range(n_units):
        costs = [p.units[u][1] / p.units[u][0] for p in passes
                 if p.units[u][0] > 0]
        if not costs:
            # The unit failed on every pass: it delivered nothing, and no
            # rate over the other units may read as a gain.
            best = median = []
            break
        best.append(min(costs))
        median.append(statistics.median(costs))
        detail.append({"events": passes[0].units[u][0],
                       "best_events_per_s": 1.0 / min(costs),
                       "median_events_per_s": 1.0 / median[-1]})
    pass_costs = []
    for p in passes:
        if all(e > 0 for e, _ in p.units):
            pass_costs.append(sum(t / e for e, t in p.units))
    return {
        "events_per_s": len(best) / sum(best) if best else 0.0,
        "events_per_s_median": len(median) / sum(median) if median else 0.0,
        "pass_spread": (max(pass_costs) / min(pass_costs) - 1.0
                        if pass_costs else 0.0),
        "events_per_pass": statistics.median(
            sum(e for e, _ in p.units) for p in passes),
        "units": detail,
    }


class Correctness:
    """Counts ops and folds their deterministic facts into sim_digest.

    Every reply for one op — on every pass, and for the warm workload
    every hit — must carry identical facts; the digest covers the ops
    in op order.  A mismatch fails every op of the workload: a speed-up
    that changes a simulated statistic is not a speed-up.
    """

    def __init__(self, ops: List[Dict]) -> None:
        self.op_ids = [op["id"] for op in ops]
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.facts: Dict[int, Any] = {}
        self.unstable = False

    def add(self, results: List[Tuple[Dict, OpResult]]) -> None:
        for op, res in results:
            self.attempted += 1
            if not res.ok:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(res.error)
                continue
            seen = self.facts.setdefault(op["id"], res.facts)
            if seen != res.facts:
                self.unstable = True

    def digest(self) -> str:
        return sim_digest([self.facts.get(i) for i in self.op_ids])

    def close(self, expected: Optional[str]) -> bool:
        """Apply the digest gate; returns whether the run is correct."""
        if self.unstable:
            self.errors.append("sim_digest differs between passes")
        elif expected is not None and self.digest() != expected:
            self.errors.append(
                f"sim_digest {self.digest()} != pinned {expected}")
        else:
            return self.failed == 0
        self.failed = self.attempted
        return False
