"""Shard coordinator: window computation, rescue, stats merge.

The :class:`ShardedMachine` is the sharded backend's counterpart to
:class:`~repro.core.engine.Machine`.  It spawns one worker process per
shard (``fork`` where the host supports it — workers inherit the
parent's imports instead of booting fresh interpreters — else
``spawn``; see :func:`~repro.parallel.channels.resolve_start_method`)
and drives them through lockstep **coordination rounds** over a
:class:`~repro.parallel.channels.SharedRoundBoard`:

1. broadcast ``("go", horizon, lift, waive)`` — the safe execution
   window is ``[_, global_min + window * T)`` under spatial sync (the
   drift bound makes everything below the horizon independent of work
   the other shards have not yet simulated), or unbounded for the
   ``unbounded`` policy; the exact shadow fixpoint computed from the
   previous round's global state sits in the board's adopt plane, and
   ``lift = (window - 1) * T`` is the extra drift permission the
   adaptive window grants (see below);
2. workers adopt/anchor from the board, drain last round's
   cross-shard USER-message batches, run up to ``ROUND_BATCH``
   engine sub-rounds locally (stopping at the first boundary-crossing
   message), then publish boundary times and their (active, vtime)
   snapshot back to the board;
3. workers report a slim ``(progressed, sent, live, min_time)``
   status; the coordinator recomputes the horizon from the new global
   minimum and, under spatial sync, refreshes the adopt plane from the
   board's gathered state (see :meth:`ShardedMachine._refresh_adopt_plane`
   for why this runs every round, and why workers adopt it raise-only).

**Adaptive windows** (spatial sync): while rounds ship no
cross-shard messages, the window multiplier doubles (up to
``WINDOW_MAX_FACTOR``; both constants live in
:mod:`~repro.parallel.channels`) and collapses back to 1 on the first
traffic burst — quiet regions synchronize every ``window * T`` cycles
instead of every ``T``.  The matching ``lift`` raises boundary
permissions by the same margin, so the extra drift this admits is
bounded by ``WINDOW_MAX_FACTOR * T`` and only ever *relaxes*
scheduling: virtual times of shard-closed fenced runs are unaffected,
which is why bit-identity with serial is preserved (docs/parallel.md
has the full argument).

If a round makes no progress while work remains, an escalation ladder
engages: one *relief round* with an unbounded horizon (the window
itself can park the only core able to unblock another), then *waiver
rounds* forcing a slice on the globally-earliest stalled core (see the
escalation comment in ``_drive``); only a stall surviving a forced
slice is a genuine deadlock, mirroring the serial engine's diagnostics.

Total live-task count reaching zero ends the run; worker stats are then
merged (counters sum, per-kind message counts sum, completion virtual
time is the latest root finish), which is exactly how the serial
engine's stats decompose for a fenced run — the basis of the
bit-identity guarantee documented in docs/parallel.md.  Round-protocol
counters land in :attr:`ShardedMachine.protocol` so benchmark records
can explain *why* a number moved.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..arch.builder import build_topology
from ..core.boundary import BoundaryRule
from ..core.errors import (SanitizerViolation, SimConfigError, SimDeadlock,
                           SimError, SimTimeout)
from ..core.fabric import INF, exact_shadow_fixpoint
from ..core.stats import COUNTER_FIELDS, SimStats
from ..obs.registry import ROUND_MS_BOUNDS, WINDOW_BOUNDS
from . import channels
from .channels import (SharedRoundBoard, make_edge_channels,
                       resolve_start_method)
from .partition import Partition, contiguous_partition
from .worker import worker_main

#: Liveness bound on one worker reply: a worker silent for this long
#: is hung or dead, whatever the run's own budget says.
_REPLY_WAIT_S = 300.0


class ShardedMachine:
    """Multiprocess execution backend over a fenced configuration.

    Build one via :func:`repro.arch.build_backend` with
    ``cfg.backend == "sharded"``; run workloads with
    :meth:`run_workloads`.  Like the serial ``Machine`` it is
    single-use and exposes merged results on ``stats`` and round
    protocol counters on ``protocol``.

    Example::

        import dataclasses
        from repro.arch import build_backend, shared_mesh
        from repro.parallel import WorkloadSpec

        cfg = dataclasses.replace(shared_mesh(16), shards=2,
                                  backend="sharded")
        backend = build_backend(cfg)
        results = backend.run_workloads(
            [WorkloadSpec("quicksort", scale="tiny", root_core=0)])
    """

    def __init__(self, cfg) -> None:
        # ArchConfig refuses a sharded config this backend cannot run
        # (no shards, a global-referee sync policy, exact shadows).
        if cfg.backend != "sharded":
            raise SimConfigError(
                f"ShardedMachine needs backend='sharded', not "
                f"{cfg.backend!r}")
        self.cfg = cfg
        self.partition: Partition = contiguous_partition(
            build_topology(cfg), cfg.shards)
        self.stats = SimStats(n_cores=cfg.n_cores)
        self.rounds = 0
        self.rescues = 0
        self.reliefs = 0
        self.waivers = 0
        self.window_peak = 1.0
        #: Round-protocol counters, populated by :meth:`run_workloads`:
        #: rounds/rescues/reliefs/waivers, ``window_peak``,
        #: ``bytes_by_edge`` (pickled message bytes per directed shard
        #: edge; boundary time planes ship zero bytes), ``bytes_shipped``
        #: (their sum), ``worker_busy_s`` (summed worker wall time inside
        #: round handling) and ``parallel_efficiency``
        #: (``worker_busy_s / (wall * min(shards, host_cpus))``).
        self.protocol: Dict[str, object] = {}
        #: Merged trace (``cfg.collect_trace`` only): workers each run a
        #: Tracer and ship its packed trace with the done reply;
        #: :func:`repro.harness.trace.merge_traces` concatenates them, so
        #: this is the same type a serial ``Machine.trace`` returns.
        #: ``None`` otherwise.
        self.trace = None
        #: Coordinator-side telemetry (``cfg.telemetry``): merged with
        #: per-worker snapshots in :meth:`_finalize`, exposed via
        #: :meth:`telemetry_snapshot`.  ``worker_rounds`` maps shard id
        #: to that worker's ``(round_no, start_s, dur_s)`` host-round
        #: records and ``events`` holds coordinator escalation instants
        #: (wall clock) — both feed the Chrome-trace export.
        self.telemetry = None
        self.worker_rounds: Dict[int, list] = {}
        self.events: List[dict] = []
        self._merged_obs: Optional[dict] = None
        if cfg.telemetry:
            from ..obs import Telemetry

            self.telemetry = Telemetry(cfg.telemetry, cfg.n_cores)
        self._board: Optional[SharedRoundBoard] = None
        self._ran = False
        #: The run budget as a perf_counter() value; see run_workloads.
        self._deadline: Optional[float] = None

    # -- public API ------------------------------------------------------
    def run_workloads(
        self,
        specs: Sequence[Any],
        timeout: Optional[float] = None,
        *,
        checkpoint_every: Optional[float] = None,
        checkpoint_sink: Optional[Callable[[float, List[dict]], None]] = None,
        verify_at: Optional[float] = None,
        verify_states: Optional[List[dict]] = None,
    ) -> List[Any]:
        """Run the given workload roots to completion; return their results
        in spec order.  Same signature, and the same meaning of every
        argument, as :meth:`repro.core.engine.Machine.run_workloads`.

        ``timeout`` is the run's wall-clock budget in seconds:
        :class:`~repro.core.errors.SimTimeout` once it is spent (the
        workers are killed on the way out); ``None`` runs unbounded.

        The checkpoint hooks follow :mod:`repro.core.boundary`, with one
        state per worker: the safe points are round barriers with work
        still live, and the frontier is read off the round board.
        """
        if self._ran:
            raise SimError(
                "a ShardedMachine instance is single-use; build a new one")
        self._ran = True
        specs = list(specs)
        for spec in specs:
            if not 0 <= spec.root_core < self.cfg.n_cores:
                raise SimConfigError(
                    f"root core {spec.root_core} out of range")
        rule = BoundaryRule(checkpoint_every, checkpoint_sink, verify_at,
                            verify_states, per_shard=True)
        if (verify_states is not None
                and len(verify_states) != self.partition.n_shards):
            from ..checkpoint.codec import CheckpointError

            raise CheckpointError(
                f"snapshot holds {len(verify_states)} shard states but "
                f"this run has {self.partition.n_shards} shards; restoring "
                "onto a different shard count is not supported")
        t_start = time.perf_counter()
        self._t0 = t_start  # wall-clock origin for telemetry events
        self._deadline = None if timeout is None else t_start + timeout
        # Samples coordinator phases (dispatch/wait_workers/coordinate);
        # each worker runs its own profiler in-process.
        tel = self.telemetry
        self._profiler = tel.start_profiler() if tel is not None else None
        mp_ctx = multiprocessing.get_context(resolve_start_method())
        part = self.partition
        topo = build_topology(self.cfg)
        self._neighbors = [topo.neighbors(c)
                           for c in range(self.cfg.n_cores)]
        board = SharedRoundBoard.create(self.cfg.n_cores, part.n_shards)
        self._board = board
        edges = make_edge_channels(mp_ctx, part)
        ctrl: List[object] = []
        workers: List[object] = []
        try:
            with channels.FORK_LOCK:
                for sid in range(part.n_shards):
                    parent_conn, child_conn = mp_ctx.Pipe(duplex=True)
                    proc = mp_ctx.Process(
                        target=worker_main,
                        args=(sid, self.cfg, specs, edges[sid], child_conn,
                              board.name),
                        name=f"repro-shard-{sid}",
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    ctrl.append(parent_conn)
                    workers.append(proc)
            results = self._drive(specs, ctrl, rule)
        finally:
            # SIGKILL: a worker holds nothing to clean up, and one
            # forked from a service job ignores SIGTERM.
            for proc in workers:
                if proc.is_alive():
                    proc.kill()
            for proc in workers:
                proc.join(timeout=5.0)
            board.close()
            board.unlink()
            self._board = None
            if self._profiler is not None:  # error path; normal stop is
                self._profiler.stop()       # in _finalize, pre-merge
                self._profiler = None
        self.stats.wall_seconds = wall = time.perf_counter() - t_start
        busy = self.protocol.get("worker_busy_s", 0.0)
        slots = min(part.n_shards, os.cpu_count() or 1)
        self.protocol["parallel_efficiency"] = (
            round(busy / (wall * slots), 4) if wall > 0 else 0.0)
        return results

    # -- coordination loop ----------------------------------------------
    def _drive(self, specs, ctrl, rule: BoundaryRule) -> List[Any]:
        cfg = self.cfg
        spatial = cfg.sync == "spatial"
        T = cfg.drift_bound
        window_max = channels.WINDOW_MAX_FACTOR
        # The window horizon protects round-stale proxies; a partition
        # without a boundary has none, and parking its cores would only
        # reorder the ready ring away from the serial run's.
        windowed = spatial and self.partition.n_shards > 1
        # Round 1: every core sits at virtual time 0, nothing to adopt
        # (the board's adopt plane starts at INF).
        horizon = T if windowed else INF
        window = 1.0
        lift = self._window_lift(window)
        # Escalation ladder for a no-progress round (spatial only —
        # the unbounded policy gates nothing, so its stall is final):
        #   stall 1 — one *relief round* with an unbounded horizon.  The
        #             window can park the only core able to unblock a
        #             below-horizon core: e.g. an in-flight TASK_SPAWN
        #             pins the spawner's drift floor through the birth
        #             ledger until the (parked) destination core delivers
        #             it.  Serial has no horizon, so the deliverer would
        #             simply run; the relief round restores exactly that
        #             behaviour, with drift checks against the published
        #             times still bounding execution locally.
        #   stall 2 — one *waiver round*: the shard holding the global
        #             minimum forces one slice on its earliest core,
        #             drift check bypassed (``run_shard_waiver``).  The
        #             round-based interleaving can wedge with every core
        #             legitimately drift-stalled against a recv-blocked
        #             laggard; serial trajectories sidestep such states,
        #             and the waiver escapes them at minimal, counted
        #             accuracy cost.
        #   stall 3 — even the forced slice produced nothing: genuine
        #             deadlock (there is no work left to force).
        stall = 0
        frontier = 0.0
        tel = self.telemetry
        if tel is not None:
            window_hist = tel.registry.histogram(
                "parallel.window", WINDOW_BOUNDS)
            round_hist = tel.registry.histogram(
                "parallel.round_wall_ms", ROUND_MS_BOUNDS)
        while True:
            waive_sid = None
            if spatial and stall >= 2:
                waive_sid = min(range(len(ctrl)),
                                key=lambda i: statuses[i][4])
                self.waivers += 1
                if tel is not None:
                    self.events.append(
                        {"name": "waiver",
                         "ts_s": time.perf_counter() - self._t0,
                         "shard": waive_sid})
            if cfg.sanitize:
                self._check_lift(lift)
            round_t0 = time.perf_counter()
            if tel is not None:
                tel.phase = "dispatch"
            for sid, conn in enumerate(ctrl):
                conn.send(("go", horizon, lift, sid == waive_sid))
            if tel is not None:
                tel.phase = "wait_workers"
            statuses = [self._expect(conn, "status") for conn in ctrl]
            if tel is not None:
                tel.phase = "coordinate"
                window_hist.observe(window)
                round_hist.observe(
                    (time.perf_counter() - round_t0) * 1e3)
            self.rounds += 1
            live = sum(s[3] for s in statuses)
            if live == 0:
                break
            # Round barrier: workers are blocked on the next command, so
            # their machine state is frozen — the safe point for
            # checkpoint capture and restore verification.
            if rule.stop is not None:
                frontier = max(frontier, float(self._board.vtime.max()))
                if frontier >= rule.stop:
                    rule.cross(frontier, self._collect_worker_states(ctrl))
            sent_total = sum(s[2] for s in statuses)
            progressed = any(s[1] for s in statuses) or sent_total > 0
            global_min = min(s[4] for s in statuses)
            if spatial:
                self._refresh_adopt_plane()
            if progressed:
                stall = 0
            else:
                stall += 1
                if global_min == INF or not spatial or stall > 2:
                    self._deadlock(live, statuses)
                if stall == 1:
                    self.reliefs += 1
                    if tel is not None:
                        self.events.append(
                            {"name": "relief",
                             "ts_s": time.perf_counter() - self._t0})
            if spatial:
                # Quiet round: nothing crossed a boundary, so shards are
                # provably independent up to the current permissions —
                # widen the window to amortize the next barrier.  Any
                # traffic collapses it back to the paper's T.
                if sent_total == 0:
                    window = min(window * 2.0, window_max)
                    if window > self.window_peak:
                        self.window_peak = window
                else:
                    window = 1.0
                lift = self._window_lift(window)
            if windowed and stall == 0:
                horizon = global_min + T * window
            else:
                horizon = INF
        rule.finish(frontier)
        for conn in ctrl:
            conn.send(("stop",))
        return self._finalize(specs, ctrl)

    def _collect_worker_states(self, ctrl) -> List[dict]:
        """Gather every worker's machine-state capture at a barrier."""
        for conn in ctrl:
            conn.send(("snapshot",))
        return [self._expect(conn, "state")[1] for conn in ctrl]

    def _window_lift(self, window: float) -> float:
        """Extra drift permission shipped with a round's ``go``: the
        margin by which the adaptive window exceeds the paper's T.
        Factored out so the sanitizer (coordinator-side ``_check_lift``,
        worker-side ``Sanitizer.begin_round``) guards a single
        definition of the protocol invariant
        ``0 <= lift <= (WINDOW_MAX_FACTOR - 1) * T``."""
        return (window - 1.0) * self.cfg.drift_bound

    def _check_lift(self, lift: float) -> None:
        T = self.cfg.drift_bound
        window_max = channels.WINDOW_MAX_FACTOR
        bound = (window_max - 1.0) * T
        if not -1e-9 <= lift <= bound * (1.0 + 1e-12) + 1e-9:
            raise SanitizerViolation(
                "window-lift",
                f"coordinator would grant drift lift {lift!r} outside "
                f"[0, {bound!r}] (window cap x{window_max:g}, T={T:g})",
                bound=bound,
                details={"lift": lift, "window_max": window_max})

    def _refresh_adopt_plane(self) -> None:
        """Per-round exact shadow fixpoint from the board's global
        (active, vtime) planes into its adopt plane — the sharded
        analogue of the serial ``refresh_shadows``, run every round
        rather than only on a no-runnable rescue.

        Fast-mode relax waves are worker-local, so the shadow of an
        idle region freezes at whatever value it had when the cores
        that would relax it crossed into another shard — and every
        core drift-checking against that frozen floor eventually
        stalls for good.  Recomputing the fixpoint from true global
        state each round keeps those shadows moving.

        Workers adopt the values *raise-only* (``adopt_shadow`` /
        ``set_proxy_time``), matching the serial fast mode's monotone
        published times.  Lowering a published value is never safe
        here: it is a permission already granted, and cores that ran
        under it would retroactively sit above their floor by more
        than the drift bound — a mutually-stalled wedge the serial
        engine (equally permissive between its rescues) never reaches.
        The bounded inaccuracy this admits is the same one the serial
        fast mode admits, and the paper's accuracy figures absorb.
        """
        self.rescues += 1
        board = self._board
        board.adopt[:] = exact_shadow_fixpoint(
            self._neighbors, board.active, board.vtime,
            self.cfg.drift_bound)

    def _finalize(self, specs, ctrl) -> List[Any]:
        results: Dict[int, object] = {}
        finishes: Dict[int, Optional[float]] = {}
        worker_stats: List[SimStats] = []
        bytes_by_edge: Dict[str, int] = {}
        busy_total = 0.0
        traces = []
        obs_snaps = []
        for sid, conn in enumerate(ctrl):
            reply = self._expect(conn, "done")
            worker_stats.append(reply[1])
            results.update(reply[2])
            finishes.update(reply[3])
            for peer, nbytes in sorted(reply[4].items()):
                if nbytes:
                    bytes_by_edge[f"{sid}->{peer}"] = nbytes
            busy_total += reply[5]
            if reply[6] is not None:
                traces.append(reply[6])
            snap = reply[7]
            if snap is not None:
                self.worker_rounds[sid] = snap.pop("host_rounds", [])
                obs_snaps.append(snap)
        if traces:
            from ..harness.trace import merge_traces

            self.trace = merge_traces(traces)
        missing = [i for i in range(len(specs)) if i not in results]
        if missing:
            raise SimError(
                f"workload specs {missing} produced no result; "
                f"check their root_core assignments")
        self._merge_stats(worker_stats, finishes)
        self._set_protocol(bytes_by_edge, busy_total)
        tel = self.telemetry
        if tel is not None:
            from ..obs import merge_snapshots

            if self._profiler is not None:
                self._profiler.stop()  # lands in tel.profile pre-snapshot
                self._profiler = None

            # Mirror the protocol counters into the registry so one
            # metrics.json tells the whole story, then fold the worker
            # snapshots in exactly like stats merge above.
            counters = tel.counters
            counters["parallel.rounds"] += self.rounds
            counters["parallel.rescues"] += self.rescues
            counters["parallel.reliefs"] += self.reliefs
            counters["parallel.waivers"] += self.waivers
            counters["parallel.bytes_shipped"] += sum(bytes_by_edge.values())
            for edge, nbytes in bytes_by_edge.items():
                counters[f"parallel.bytes_edge.{edge}"] += nbytes
            tel.registry.gauge_max("parallel.window_peak", self.window_peak)
            self._merged_obs = merge_snapshots([tel.snapshot()] + obs_snaps)
        return [results[i] for i in range(len(specs))]

    def _set_protocol(self, bytes_by_edge: Dict[str, int],
                      worker_busy_s: float) -> None:
        self.protocol = {
            "rounds": self.rounds,
            "rescues": self.rescues,
            "reliefs": self.reliefs,
            "waivers": self.waivers,
            "window_peak": self.window_peak,
            "bytes_by_edge": bytes_by_edge,
            "bytes_shipped": sum(bytes_by_edge.values()),
            "worker_busy_s": round(worker_busy_s, 6),
        }

    def telemetry_snapshot(self) -> Optional[dict]:
        """Merged telemetry (coordinator + workers); ``None`` when
        ``cfg.telemetry`` is off or the run has not finished."""
        return self._merged_obs

    def _merge_stats(self, worker_stats, finishes) -> None:
        merged = self.stats
        for st in worker_stats:
            for name in COUNTER_FIELDS:
                setattr(merged, name, getattr(merged, name) + getattr(st, name))
            merged.messages_by_kind.update(st.messages_by_kind)
            merged.parallelism_samples.extend(st.parallelism_samples)
            for cid, busy in st.core_busy_cycles.items():
                if busy:
                    merged.core_busy_cycles[cid] = busy
            for key, value in st.noc.items():
                if isinstance(value, (int, float)):
                    merged.noc[key] = merged.noc.get(key, 0) + value
        if finishes and all(f is not None for f in finishes.values()):
            merged.completion_vtime = max(finishes.values())
        else:
            merged.completion_vtime = max(
                (st.completion_vtime for st in worker_stats), default=0.0)

    # -- plumbing --------------------------------------------------------
    def _expect(self, conn, tag: str):
        """Receive one worker reply, surfacing worker errors and the run
        budget (what is left of ``timeout`` bounds the wait)."""
        deadline = self._deadline
        wait = _REPLY_WAIT_S
        if deadline is not None:
            wait = min(wait, max(0.0, deadline - time.perf_counter()))
        if not conn.poll(wait):
            if deadline is not None and time.perf_counter() >= deadline:
                raise SimTimeout(
                    f"run exceeded its wall-clock budget after "
                    f"{self.rounds} rounds (waiting for {tag!r})")
            raise SimError(
                f"shard worker did not reply within {_REPLY_WAIT_S:g}s "
                f"(waiting for {tag!r})")
        reply = conn.recv()
        if reply[0] == "violation":
            _, sid, check, message, info, trace = reply
            prefix = f"[sanitize:{check}] "
            if message.startswith(prefix):
                message = message[len(prefix):]
            raise SanitizerViolation(
                check, f"shard worker {sid}: {message}",
                core=info.get("core"), vtime=info.get("vtime"),
                bound=info.get("bound"),
                details=dict(info.get("details") or {}, worker_trace=trace))
        if reply[0] == "error":
            _, sid, brief, trace = reply
            raise SimError(
                f"shard worker {sid} failed: {brief}\n{trace}")
        if reply[0] != tag:
            raise SimError(
                f"protocol error: expected {tag!r}, got {reply[0]!r}")
        return reply

    def _deadlock(self, live, statuses) -> None:
        # Leave the protocol counters inspectable on the (dead) backend:
        # the diagnostics travel with the exception, but tests and
        # harness code read ``backend.protocol`` uniformly.
        self._set_protocol({}, 0.0)
        raise SimDeadlock(
            f"sharded run cannot make progress: {live} live tasks, "
            f"no runnable work even in an unbounded relief round",
            diagnostics={
                "rounds": self.rounds,
                "rescues": self.rescues,
                "reliefs": self.reliefs,
                "waivers": self.waivers,
                "per_shard_live": [s[3] for s in statuses],
                "per_shard_min_time": [s[4] for s in statuses],
            },
        )

    def describe(self) -> str:
        """One-line backend summary (CLI banner)."""
        cfg = self.cfg
        extras = ""
        if self.telemetry is not None:
            extras = f", telemetry {self.telemetry.describe()}"
        return (f"sharded backend: {self.partition.describe()}, "
                f"sync={cfg.sync} T={cfg.drift_bound}{extras}, "
                f"start={resolve_start_method()}")
