"""The SiMany simulation engine.

A :class:`Machine` assembles a topology, a NoC, the virtual-time fabric, a
synchronization policy, a memory model and a task run-time system, then
drives simulated cores cooperatively: the engine repeatedly selects a
runnable core and lets it process inbox messages and execute task actions
for a bounded slice, exactly like the paper's single-process, userland-
scheduled implementation (Section III).  Sequential code between actions
runs natively (it is ordinary Python inside the task generators); only
interactions are simulated.

Scheduling: cores that have work live in a ready ring (round-robin).  A core
whose drift check fails moves to the stalled set and is woken by the
fine-grained hooks (a neighbour's published time increased, a spawn birth
was discarded) or by the policy's global recheck.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .actions import (
    Acquire,
    CellAccess,
    Compute,
    Join,
    LocalTime,
    MemAccess,
    RecvMsg,
    Release,
    SendMsg,
    TrySpawn,
    YieldCpu,
)
from .coreunit import CoreUnit
from .errors import (SimConfigError, SimDeadlock, SimError, SimTimeout,
                     TaskError)
from .fabric import VirtualTimeFabric, exact_shadow_fixpoint
from .messages import DEFAULT_SIZES, Message, MsgKind
from .soa import CoreStateArrays
from .stats import SimStats, WallTimer
from .sync import SyncPolicy
from .task import Task, TaskContext, TaskState
from ..network.noc import Noc
from ..network.topology import Topology
from ..timing.annotator import BlockAnnotator
from ..timing.branch import BranchPredictorModel
from ..timing.isa import CostTable, default_cost_table

INF = math.inf

#: The observation seam (docs/internals.md §7): every event a Machine
#: emits, each from one place, with its callback arguments.  Observers
#: (``Tracer``, ``Sanitizer``, ``Telemetry``) ``subscribe`` callbacks;
#: an event nobody subscribed costs one ``is not None`` check.
EVENTS = (
    "task_started",    # (core, task) after a start or resume
    "task_suspended",  # (core, task) as the task leaves the core
    "task_finished",   # (core, task) before the run-time's finish hook
    "stalled",         # (core) on a drift-stall transition
    "admitted",        # (core) the policy admitted the core's next unit
    "dispatched",      # (core, action) a task yielded an action
    "serviced",        # (core, msg) before the message is serviced
    "handled",         # (core, msg) after its handler returned
    "emitted",         # (msg) once the NoC assigned its arrival
    "injected",        # (msg) a boundary message entered its inbox
    "advanced",        # (core) after the core's clock moved forward
    "slice_ended",     # (core, progressed)
    "rescue",          # () a no-runnable recovery round begins
    "run_finished",    # () after finish_run folded the stats
    "proxy_anchored",  # (cid, value, published before)
    "shadow_adopted",  # (cid, value, published before)
)


class Observers:
    """The callback of each :data:`EVENTS` entry: ``None`` until
    subscribed, then its one subscriber or a chain calling each of them
    in subscription order."""

    __slots__ = EVENTS

    def __init__(self) -> None:
        for event in EVENTS:
            setattr(self, event, None)


def _chain(first: Callable, then: Callable) -> Callable:
    def emit(*args) -> None:
        first(*args)
        then(*args)
    return emit


@dataclass
class EngineParams:
    """Run-time system and engine cost parameters (paper, Section V)."""

    #: Overhead of starting a task on a core, on top of receiving the spawn
    #: message (paper: 10 cycles).
    task_start_cycles: float = 10.0
    #: Context switch to a joining/resuming task (paper: 15 cycles).
    context_switch_cycles: float = 15.0
    #: Cost of handling one incoming message chunk on a core.
    msg_process_cycles: float = 2.0
    #: Cost of emitting one message (marshalling, NI injection).
    send_overhead_cycles: float = 2.0
    #: Cost of the local resource check of a ``probe`` that fails fast.
    probe_check_cycles: float = 3.0
    #: Cost of decrementing a task group's active counter.
    group_decrement_cycles: float = 5.0
    #: Task-queue capacity used by probe admission control.
    queue_capacity: int = 4
    #: Maximum actions executed per scheduling slice of one core.
    slice_actions: int = 64
    #: Multiplier on compute-block costs (cycle-level pipeline overheads).
    compute_overhead_factor: float = 1.0
    #: Fixed instruction-fetch cost charged per compute block (cycle-level
    #: split-I-cache modelling; 0 disables).
    icache_block_cycles: float = 0.0
    #: Safety valve: abort after this many host-side actions (None = off).
    max_host_actions: Optional[int] = None
    #: Sample the number of concurrently runnable cores every N scheduling
    #: decisions (None = off).  Used by the parallel-host feasibility study
    #: (paper, Section VIII): cores that are runnable at the same host
    #: moment could be simulated by parallel host threads.
    parallelism_sample_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise SimConfigError("queue capacity must be >= 1")
        if self.slice_actions < 1:
            raise SimConfigError("slice must allow at least one action")
        interval = self.parallelism_sample_interval
        if interval is not None and (
                not isinstance(interval, int) or interval < 1):
            raise SimConfigError(
                "parallelism_sample_interval must be an integer >= 1 "
                f"(or None), got {interval!r}")


class Machine:
    """A simulated many-core machine: cores + NoC + virtual-time fabric.

    The central object of the simulator.  It owns one
    :class:`~repro.core.coreunit.CoreUnit` per simulated core, the
    :class:`~repro.network.noc.Noc` that times every message, the
    :class:`~repro.core.fabric.VirtualTimeFabric` holding per-core
    clocks and drift state, and the :class:`SyncPolicy` that decides
    which core may run next.  A memory model and a task run-time are
    attached after construction (``attach_memory`` / ``attach_runtime``)
    — most callers get a fully wired machine from
    :func:`repro.arch.build_machine` instead of calling this directly.

    Two driving interfaces:

    * ``run(root_fn)`` / ``run_roots([...])`` — the serial loop: seed
      root tasks, interleave all cores through the ready ring until
      everything completes, return the roots' results.
      ``run_workloads(specs, ...)`` is the same loop behind the
      execution surface :class:`~repro.parallel.coordinator.
      ShardedMachine` shares (specs in, checkpoint/verify hooks).
    * the shard-stepping interface (``set_shard_scope``,
      ``begin_run`` / ``seed_root``, ``run_shard_round``,
      ``run_shard_waiver``, ``inject_message``, ``finish_run``) — used
      by the sharded multiprocess backend to drive only a subset of
      cores in externally-coordinated rounds (see
      ``repro.parallel`` and docs/parallel.md).

    Scheduling is cooperative and non-preemptive: each ready core runs
    one *slice* (up to ``params.slice_actions`` actions) before the
    next core's turn, matching the paper's userland-threads model.
    Every action goes through the handler table, one per step, and
    per-core inboxes keep an incremental arrival-ordered heap only when
    the policy needs ordered queries.

    Example::

        from repro.arch import build_machine, shared_mesh
        machine = build_machine(shared_mesh(16))
        result = machine.run(my_root_fn)   # root's return value
        print(machine.stats.completion_vtime, machine.describe())
    """

    #: Round-protocol counters; the in-process backend has no rounds.
    protocol = None

    def __init__(
        self,
        topo: Topology,
        policy: SyncPolicy,
        params: Optional[EngineParams] = None,
        *,
        drift_bound: float = 100.0,
        shadow_enabled: bool = True,
        shadow_mode: str = "fast",
        cost_table: Optional[CostTable] = None,
        speed_factors: Optional[Sequence[float]] = None,
        branch_accuracy: float = 0.9,
        branch_penalty: float = 5.0,
        sample_branches: bool = True,
        router_penalty: float = 1.0,
        chunk_bytes: int = 64,
        model_contention: bool = True,
        seed: int = 0,
    ) -> None:
        self.topo = topo
        self.n_cores = topo.n_cores
        self.params = params or EngineParams()
        self.policy = policy
        self.seed = seed
        self.stats = SimStats(n_cores=self.n_cores)

        self.noc = Noc(
            topo,
            router_penalty=router_penalty,
            chunk_bytes=chunk_bytes,
            model_contention=model_contention,
        )
        #: Struct-of-arrays plane shared by the fabric, the cores and
        #: the dispatcher (single source of truth for hot per-core
        #: state; see repro.core.soa).
        self.soa = CoreStateArrays(
            self.n_cores, [topo.neighbors(c) for c in range(self.n_cores)])
        self.fabric = VirtualTimeFabric(
            topo,
            drift_bound=drift_bound,
            shadow_enabled=shadow_enabled,
            shadow_mode=shadow_mode,
            on_publish_increase=self._on_publish_increase,
            soa=self.soa,
        )

        table = cost_table or default_cost_table()
        if speed_factors is None:
            speed_factors = [1.0] * self.n_cores
        if len(speed_factors) != self.n_cores:
            raise SimConfigError("speed_factors length must match core count")
        # Each core's annotator is built from these at its first task
        # start (_start_or_resume); most cores of a large machine never
        # run one.  Building the predictor here checks the branch model.
        self._annotator_parts = (table, sample_branches, BranchPredictorModel(
            accuracy=branch_accuracy, penalty_cycles=branch_penalty))
        self.cores: List[CoreUnit] = [
            CoreUnit(cid, speed_factor=float(speed_factors[cid]),
                     soa=self.soa)
            for cid in range(self.n_cores)
        ]

        self.memory = None  # attached by the builder
        self.runtime = None  # attached by the builder
        self._handlers: Dict[MsgKind, Callable[[CoreUnit, Message], None]] = {
            MsgKind.USER: self._handle_user_msg,
        }
        self._action_handlers = {
            Compute: self._do_compute,
            MemAccess: self._do_mem,
            CellAccess: self._do_cell,
            TrySpawn: self._do_try_spawn,
            Join: self._do_join,
            Acquire: self._do_acquire,
            Release: self._do_release,
            SendMsg: self._do_send,
            RecvMsg: self._do_recv,
            LocalTime: self._do_localtime,
            YieldCpu: self._do_yield,
        }

        self._ready: deque = deque()
        self._stalled: set = set()
        self._svc_time = 0.0
        # The plane's neighbour tuples, shared rather than copied per core.
        self._neighbor_cache = self.soa.neighbors
        self.live_tasks = 0
        self.last_finish_time = 0.0
        self._ran = False
        self._stop_at_vtime: Optional[float] = None
        #: ``time.perf_counter()`` value past which the run gives up
        #: (``run_workloads(timeout=)``); None = no budget, no clock read.
        self._deadline: Optional[float] = None
        self.root_task: Optional[Task] = None
        self.root_tasks: List[Task] = []
        #: Partition fencing the run-time to shard-local dispatch (set by
        #: the builder when ``ArchConfig.shards > 0``); None = unfenced.
        self.fence = None
        #: Harness tracer (``repro.harness.trace.Tracer``); set by the
        #: builder when ``ArchConfig.collect_trace`` is on and read
        #: through :attr:`trace`.
        self.tracer = None
        #: Runtime invariant checker (``repro.verify.Sanitizer``); set by
        #: the builder when ``ArchConfig.sanitize`` is on.  The engine
        #: never consults it — the sanitizer subscribes to
        #: :attr:`observers` — but the worker/CLI layers use it to drive
        #: round-scoped checks.
        self.sanitizer = None
        #: Opt-in telemetry registry (``repro.obs.Telemetry``); set by the
        #: builder when ``ArchConfig.telemetry`` is non-empty, and
        #: subscribed to :attr:`observers` by :meth:`attach_telemetry`.
        #: Telemetry is observation-only: results are bit-identical with
        #: it on.
        self.telemetry = None
        #: The observation seam: one callback per :data:`EVENTS` entry,
        #: set by :meth:`subscribe`.
        self.observers = Observers()
        # Shard-execution scope (sharded backend): when set, only cores in
        # ``_owned`` are driven locally and messages to other cores are
        # handed to ``_foreign_sink`` instead of delivered (see
        # repro.parallel).  ``_horizon`` caps how far any owned core may
        # run inside one coordination round; cores at or past it are
        # parked until the next round raises the horizon.
        self._owned: Optional[set] = None
        self._foreign_sink: Optional[Callable[[Message], None]] = None
        self._horizon: float = INF
        self._window_parked: set = set()
        #: Induced-subgraph adjacency for the worker-local scoped shadow
        #: fixpoint (owned cores + their boundary proxies); built by
        #: set_shard_scope, used by refresh_shard_shadows.
        self._scope_neighbors: Optional[List[tuple]] = None

        # Hot-path dispatch caching: policy capability flags and hooks are
        # resolved once here instead of per-slice getattr lookups, and the
        # cores learn whether the policy needs arrival-ordered inbox
        # queries (which enables their incremental inbox heap).
        self._ordered_units = bool(getattr(policy, "ordered_units", False))
        self._reception_exempt = bool(
            getattr(policy, "reception_exempt", False))
        self._on_event_enqueued = getattr(policy, "on_event_enqueued", None)
        self._on_core_idle = None  # bound in attach_runtime
        # Hot-column aliases into the shared SoA plane: the scheduler
        # and message-servicing inner loops index these directly; the
        # CoreUnit properties are equivalent views over the same memory.
        soa = self.soa
        self._stalled_col = soa.stalled
        self._in_ready_col = soa.in_ready
        self._svc_clock_col = soa.service_clock
        self._busy_col = soa.busy_cycles
        self._last_arrival_col = soa.last_arrival
        # Per-core scaled engine overheads (speed factors and params are
        # fixed for a machine's lifetime; same product, computed once).
        params = self.params
        self._msg_cycles = [
            c.scaled(params.msg_process_cycles) for c in self.cores]
        self._send_cycles = [
            c.scaled(params.send_overhead_cycles) for c in self.cores]
        # The per-advance policy notification is skipped when on_advance
        # is the base no-op (spatial, unbounded).
        self._on_advance_hook = (
            policy.on_advance
            if type(policy).on_advance is not SyncPolicy.on_advance
            else None
        )
        track = (
            self._ordered_units
            or bool(getattr(policy, "uses_event_times", False))
        )
        for core in self.cores:
            core.track_arrivals = track

    # -- wiring ---------------------------------------------------------
    def attach_memory(self, memory) -> None:
        """Bind the memory model (shared / NUMA / distributed cells)."""
        self.memory = memory
        memory.attach(self)

    def attach_runtime(self, runtime) -> None:
        """Bind the task run-time system (spawning, joins, locks)."""
        self.runtime = runtime
        runtime.attach(self)
        self._on_core_idle = getattr(runtime, "on_core_idle", None)

    def attach_telemetry(self, telemetry) -> None:
        """Bind an opt-in telemetry registry (``repro.obs``).  Must run
        before :meth:`attach_runtime` so the runtime can cache it."""
        self.telemetry = telemetry
        self.fabric.telemetry = telemetry
        telemetry.observe(self)

    def subscribe(self, **callbacks: Callable) -> None:
        """Add a callback to each named event of :data:`EVENTS`, after
        those already subscribed (an unknown name raises)."""
        observers = self.observers
        for event, fn in callbacks.items():
            prior = getattr(observers, event)
            if prior is not None:
                fn = _chain(prior, fn)
            setattr(observers, event, fn)

    def register_handler(
        self, kind: MsgKind, handler: Callable[[CoreUnit, Message], None]
    ) -> None:
        """Register the processing function for an architectural message kind."""
        self._handlers[kind] = handler

    # -- public API ------------------------------------------------------
    def run(self, root_fn: Callable, *args, root_core: int = 0,
            stop_at_vtime: Optional[float] = None) -> Any:
        """Simulate ``root_fn(ctx, *args)`` as the root task; return its result.

        ``stop_at_vtime`` stops the simulation once any core's virtual time
        reaches the given value (partial simulation for sampling long
        workloads); the root task's result is then ``None`` and
        ``machine.live_tasks`` reports the unfinished work.

        Example::

            machine = build_machine(shared_mesh(16))
            workload = get_workload("quicksort", scale="tiny")
            result = machine.run(workload.root)
            workload.verify(result["output"])
        """
        results = self.run_roots([(root_fn, args, root_core)],
                                 stop_at_vtime=stop_at_vtime)
        return results[0]

    def run_roots(
        self,
        roots: Sequence[Tuple[Callable, tuple, int]],
        stop_at_vtime: Optional[float] = None,
    ) -> List[Any]:
        """Simulate several independent root tasks; return their results.

        ``roots`` is a sequence of ``(root_fn, args, root_core)`` tuples;
        every root is seeded at virtual time 0 on its core and all run
        concurrently.  ``stats.completion_vtime`` becomes the latest root
        finish time (the makespan).  This is the natural shape for
        shard-parallel experiments: one root per mesh region, each
        spawning only within its region (see ``ArchConfig.shards``).

        Example::

            machine = build_machine(shared_mesh(16))
            results = machine.run_roots([(rootA, (), 0), (rootB, (), 8)])
        """
        self.begin_run(stop_at_vtime=stop_at_vtime)
        for fn, args, core in roots:
            self.seed_root(fn, args, core)
        with WallTimer(self.stats):
            self._main_loop()
        self.finish_run()
        return [t.result for t in self.root_tasks]

    def resume_run(self, stop_at_vtime: Optional[float] = None) -> List[Any]:
        """Continue a run that ``stop_at_vtime`` interrupted.

        The single-use contract still holds — this continues the *same*
        run on the same machine rather than starting a new one.  The
        interrupted ``_drain_ready`` pass picks up at the exact core it
        stopped on (the stop branch re-queues it on the left), so a
        stopped-then-resumed run executes the identical host-order
        trajectory as an uninterrupted one — the property the
        checkpoint subsystem (``repro.checkpoint``) verifies bit-exactly.

        Example::

            machine.run(workload.root, stop_at_vtime=5_000.0)
            results = machine.resume_run()          # runs to completion
        """
        if not self._ran:
            raise SimError("resume_run() continues a run started by "
                           "run()/run_roots(); nothing has run yet")
        self._stop_at_vtime = stop_at_vtime
        with WallTimer(self.stats):
            self._main_loop()
        self.finish_run()
        return [t.result for t in self.root_tasks]

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
        """Run workload specs to completion; return their results in
        spec order.  Same signature as
        :meth:`~repro.parallel.coordinator.ShardedMachine.run_workloads`,
        so callers hold either backend from
        :func:`repro.arch.build_backend`.

        A spec is anything with ``resolve().root`` and ``root_core``
        (``repro.parallel.WorkloadSpec``).  ``timeout`` is the run's
        wall-clock budget in seconds: :class:`~repro.core.errors.
        SimTimeout` once it is spent; ``None`` runs unbounded (and never
        reads the clock).

        With ``checkpoint_every`` the run stops at virtual times
        ``every``, ``2 * every``, ... (boundaries a segment overshot are
        skipped, so every capture holds fresh progress) and hands
        ``(boundary, [state])`` to ``checkpoint_sink`` while work is
        still live.  With ``verify_at``/``verify_states`` the run is a
        *restore replay*: it runs straight to ``verify_at``, where the
        machine state must be bit-identical to ``verify_states[0]``
        (:class:`~repro.checkpoint.codec.CheckpointMismatchError`
        otherwise, including when the run ends before the boundary),
        and checkpoints only past it.  Stopping and resuming is
        observation-only (see :meth:`resume_run`).
        """
        if timeout is not None:
            self._deadline = time.perf_counter() + timeout
        roots = [(spec.resolve().root, (), spec.root_core) for spec in specs]
        every = None
        if checkpoint_every is not None:
            every = float(checkpoint_every)
            if every <= 0:
                raise SimConfigError(
                    f"checkpoint_every must be > 0, got {checkpoint_every}")
        tel = self.telemetry
        profiler = None
        if tel is not None and "profile" in tel.parts:
            from ..obs.profiler import SamplingProfiler

            profiler = SamplingProfiler(tel).start()
        try:
            k = every
            results = self.run_roots(
                roots, stop_at_vtime=k if verify_at is None else verify_at)
            while self.live_tasks > 0:
                if verify_at is not None:
                    from ..checkpoint.state import verify_machine_state

                    verify_machine_state(verify_states[0], self.snapshot())
                    verify_at = None
                else:
                    checkpoint_sink(k, [self.snapshot()])
                if every is not None:
                    while k <= self.fabric.max_vtime:
                        k += every
                results = self.resume_run(stop_at_vtime=k)
        finally:
            if profiler is not None:
                profiler.stop()
        if verify_at is not None:
            from ..checkpoint.codec import CheckpointMismatchError

            raise CheckpointMismatchError(
                f"restore replay completed at virtual time "
                f"{self.stats.completion_vtime:g}, before reaching the "
                f"snapshot's boundary {verify_at:g}; the replay did not "
                "reproduce the checkpointed trajectory")
        return results

    def snapshot(self) -> Dict[str, Any]:
        """Capture this machine's complete run state at a safe point.

        Safe points are wherever no slice is in flight: after a
        ``stop_at_vtime`` return, between sharded coordination rounds,
        or after completion.  Returns the two-section capture dict of
        ``repro.checkpoint.state`` (``det`` bit-exact, ``host``
        informational), encodable by the snapshot codec.
        """
        from ..checkpoint.state import capture_machine_state

        return capture_machine_state(self)

    # -- shard-executable stepping interface -----------------------------
    #
    # The sharded backend (repro.parallel) drives a Machine replica one
    # coordination round at a time instead of through _main_loop: each
    # worker process calls begin_run/seed_root once, then run_shard_round
    # per round, then finish_run.  These methods are the complete
    # execution surface a shard worker needs; everything else (drift
    # checks, slices, message servicing) is shared, unmodified engine
    # code — which is what keeps the two backends bit-identical for
    # shard-closed runs.

    def begin_run(self, stop_at_vtime: Optional[float] = None) -> None:
        """Prepare a (single-use) machine for execution: bind the policy
        and arm the run; roots are then seeded with :meth:`seed_root`."""
        if self._ran:
            raise SimError("a Machine instance is single-use; build a new one")
        if self.memory is None or self.runtime is None:
            raise SimConfigError("attach memory and runtime before run()")
        self._ran = True
        self._stop_at_vtime = stop_at_vtime
        self.policy.attach(self)

    def seed_root(self, root_fn: Callable, args: tuple = (),
                  root_core: int = 0) -> Task:
        """Queue a root task at virtual time 0 on ``root_core``."""
        if not 0 <= root_core < self.n_cores:
            raise SimConfigError(f"root core {root_core} out of range")
        root = Task(root_fn, tuple(args), group=None, birth_time=0.0,
                    is_root=True)
        if self.root_task is None:
            self.root_task = root
        self.root_tasks.append(root)
        self.live_tasks += 1
        core = self.cores[root_core]
        root.core = root_core
        core.enqueue(root)
        self._make_ready(core)
        return root

    def set_shard_scope(
        self, owned: Iterable[int], foreign_sink: Callable[[Message], None]
    ) -> None:
        """Restrict execution to ``owned`` cores (sharded backend).

        Messages emitted to any other core are handed to ``foreign_sink``
        (after NoC timing and stats accounting on the sending side)
        instead of being delivered locally; the sink forwards them to the
        owning worker's inbox at the next round barrier.
        """
        self._owned = set(owned)
        self._foreign_sink = foreign_sink
        members = set(self._owned)
        for cid in self._owned:
            members.update(self._neighbor_cache[cid])
        self._scope_neighbors = [
            tuple(j for j in self._neighbor_cache[c] if j in members)
            if c in members else ()
            for c in range(self.n_cores)
        ]

    def run_shard_round(self, horizon: float = INF) -> bool:
        """Drive the owned cores until quiescent, drift-stalled or parked
        at the window ``horizon``; return whether any slice progressed.

        The horizon is the conservative window bound ``global_min + T``
        computed by the shard coordinator: a core at or past it is parked
        for the round (a core can overshoot by at most one scheduling
        slice).  Cores drift-stalled on boundary proxies are woken
        automatically when :meth:`VirtualTimeFabric.set_proxy_time`
        raises a neighbour's published time between rounds.
        """
        self._horizon = horizon
        if self._window_parked:
            parked, self._window_parked = self._window_parked, set()
            for cid in parked:
                core = self.cores[cid]
                if core.has_work():
                    self._make_ready(core)
        # Mirror the serial main loop, which re-queues every stalled core
        # after each drain: proxies may have been anchored higher since
        # the stall, so the drift check deserves a retry.
        self._push_all_stalled()
        return self._drain_ready()

    def run_shard_waiver(self) -> bool:
        """Force one scheduling slice on the earliest owned core with
        work, bypassing the sync policy — the sharded escalation
        ladder's last step before declaring deadlock.

        The round-based interleaving can wedge where serial trajectories
        do not: every core with work legitimately drift-stalled against
        a recv-blocked core whose unblocking sender sits queued behind
        another stalled task.  The escape mirrors the paper's
        Section II-B lock waiver — run the globally-earliest stalled
        work anyway, accepting a bounded, counted accuracy error
        (``stats.lock_waiver_runs``).  Forcing only the earliest core
        keeps the error minimal: it is the work a fully-relaxed drift
        check would admit first.
        """
        owned = self._owned if self._owned is not None else range(self.n_cores)
        core = None
        best = INF
        for cid in owned:
            cand = self.cores[cid]
            if not cand.has_work():
                continue
            t = self._core_next_time(cand)
            if t < best:
                best, core = t, cand
        if core is None:
            return False
        self.stats.lock_waiver_runs += 1
        progressed = self._run_slice(core, forced=True)
        if core.has_work():
            self._make_ready(core)
        return progressed

    def refresh_shard_shadows(self) -> bool:
        """Worker-local exact shadow fixpoint over the shard's induced
        subgraph (owned cores plus their boundary proxies); returns
        whether any owned idle shadow rose.

        Run between the sub-rounds of a worker-side round batch: the
        coordinator's *global* fixpoint only lands at round barriers, so
        a multi-round batch would otherwise stall against shadows frozen
        mid-batch.  The scoped fixpoint treats anchored proxies as
        active sources at their anchor values.  Every path from a remote
        active core into the owned region crosses a proxy, and proxy
        anchors are monotone snapshots of (at most window-lifted) remote
        published times — so the scoped result never exceeds the global
        fixpoint computed under the same window lift, and adopting it
        raise-only is exactly as safe as adopting the coordinator's.
        """
        fabric = self.fabric
        if not fabric.shadow_enabled or self._owned is None:
            return False
        pub = exact_shadow_fixpoint(self._scope_neighbors, fabric.active,
                                    fabric.vtime, fabric.T)
        published = fabric.published
        raised = False
        for cid in self._owned:
            value = pub[cid]
            if value == INF or fabric.active[cid]:
                continue
            old = published[cid]
            if math.isinf(old) or value > old:
                self.adopt_shadow(cid, value)
                raised = True
        return raised

    def set_proxy_time(self, cid: int, value: float) -> None:
        """Anchor boundary proxy ``cid`` at its owner's published time
        (:meth:`VirtualTimeFabric.set_proxy_time`)."""
        before = self.fabric.published[cid]
        self.fabric.set_proxy_time(cid, value)
        if self.observers.proxy_anchored is not None:
            self.observers.proxy_anchored(cid, value, before)

    def adopt_shadow(self, cid: int, value: float) -> None:
        """Adopt a coordinator-computed shadow for idle core ``cid``
        (:meth:`VirtualTimeFabric.adopt_shadow`)."""
        before = self.fabric.published[cid]
        self.fabric.adopt_shadow(cid, value)
        if self.observers.shadow_adopted is not None:
            self.observers.shadow_adopted(cid, value, before)

    def _core_next_time(self, core: CoreUnit) -> float:
        """Earliest virtual time at which the core can actually execute
        its next unit (INF when it has no work).

        An *active* core's clock is monotone (``advance_to``), so queued
        starts and inbox arrivals in its past are clamped up to
        ``vtime`` — reporting the raw ready time would drag the window
        horizon below every other core's clock and park the very
        neighbours whose progress a drift-stalled core is waiting on.
        An idle core re-activates at the unit's own time
        (``set_active`` may lower its clock), so no clamp applies.
        """
        if core.current is not None:
            return self.fabric.vtime[core.cid]
        t = core.next_start_time()
        arrival = core.next_event_time()
        if arrival < t:
            t = arrival
        if self.fabric.active[core.cid]:
            vt = self.fabric.vtime[core.cid]
            if t < vt:
                t = vt
        return t

    def shard_min_time(self) -> float:
        """Earliest virtual time at which an owned core has pending work
        (INF when the shard is quiescent); feeds the coordinator's global
        window computation."""
        owned = self._owned if self._owned is not None else range(self.n_cores)
        best = INF
        for cid in owned:
            core = self.cores[cid]
            if not core.has_work():
                continue
            t = self._core_next_time(core)
            if t < best:
                best = t
        return best

    def shard_has_work(self) -> bool:
        """True while any owned core has runnable or pending work."""
        owned = self._owned if self._owned is not None else range(self.n_cores)
        return any(self.cores[cid].has_work() for cid in owned)

    def inject_message(
        self,
        kind: MsgKind,
        src: int,
        dst: int,
        send_time: float,
        size: float,
        arrival: float,
        payload: Any = None,
        tag: Optional[object] = None,
    ) -> Message:
        """Deliver a message whose NoC arrival was computed elsewhere.

        Used by the sharded backend to inject boundary-crossing messages
        received from a peer worker: the sender's NoC replica already
        assigned the arrival time and counted the message, so delivery
        here is a plain inbox push plus destination wake-up.
        """
        msg = Message(kind, src, dst, send_time, size, payload=payload,
                      tag=tag)
        msg.arrival = arrival
        dest = self.cores[dst]
        dest.inbox_push(msg)
        hook = self._on_event_enqueued
        if hook is not None:
            hook(dest)
        self._make_ready(dest)
        if self.observers.injected is not None:
            self.observers.injected(msg)
        return msg

    def finish_run(self) -> None:
        """Fold end-of-run state into ``stats`` (NoC, busy cycles,
        completion time = latest root finish, or the frontier when a root
        was interrupted by ``stop_at_vtime``)."""
        finishes = [t.finish_time for t in self.root_tasks]
        if finishes and all(f is not None for f in finishes):
            self.stats.completion_vtime = max(finishes)
        else:
            self.stats.completion_vtime = self.fabric.max_vtime
        self.stats.noc = self.noc.stats.as_dict()
        self.stats.shadow_recomputes = self.fabric.shadow_recomputes
        for c in self.cores:
            self.stats.core_busy_cycles[c.cid] = c.busy_cycles
        if self.observers.run_finished is not None:
            self.observers.run_finished()

    @property
    def trace(self):
        """The run's :class:`~repro.harness.trace.PackedTrace` (``None``
        without ``collect_trace``).

        Built on each read: still-open spans are flushed at the cores'
        clocks into a copy of the tracer's rows, so the tracer itself
        keeps recording if the run resumes.  Read it once and keep the
        result.
        """
        return self.tracer.export() if self.tracer is not None else None

    def telemetry_snapshot(self) -> Optional[dict]:
        """This run's telemetry so far; ``None`` when ``cfg.telemetry``
        is off (the accessor :class:`~repro.parallel.coordinator.
        ShardedMachine` shares)."""
        tel = self.telemetry
        return tel.snapshot() if tel is not None else None

    @property
    def completion_time(self) -> float:
        """Virtual time at which the root task finished."""
        return self.stats.completion_vtime

    # -- scheduling ------------------------------------------------------
    def _make_ready(self, core: CoreUnit) -> None:
        cid = core.cid
        stalled_col = self._stalled_col
        if stalled_col[cid]:
            stalled_col[cid] = 0
            self._stalled.discard(cid)
        in_ready_col = self._in_ready_col
        if not in_ready_col[cid]:
            in_ready_col[cid] = 1
            self._ready.append(core)

    def _mark_stalled(self, core: CoreUnit) -> None:
        cid = core.cid
        stalled_col = self._stalled_col
        if not stalled_col[cid]:
            stalled_col[cid] = 1
            self._stalled.add(cid)
            self.stats.drift_stalls += 1
            if self.observers.stalled is not None:
                self.observers.stalled(core)

    def _on_publish_increase(self, cid: int) -> None:
        """Fabric hook: a core's published time rose; wake stalled neighbours."""
        if not self._stalled:
            return
        cores = self.cores
        stalled_col = self._stalled_col
        for j in self._neighbor_cache[cid]:
            if stalled_col[j]:
                self._make_ready(cores[j])

    def _push_all_stalled(self) -> bool:
        woke = False
        for cid in list(self._stalled):
            self._make_ready(self.cores[cid])
            woke = True
        return woke

    def _main_loop(self) -> None:
        stale_rescues = 0
        stop_at = self._stop_at_vtime
        while self.live_tasks > 0:
            if stop_at is not None and self.fabric.max_vtime >= stop_at:
                return  # partial simulation requested
            progressed = self._drain_ready()
            if stop_at is not None and self.fabric.max_vtime >= stop_at:
                return
            if self.live_tasks == 0:
                break
            if progressed:
                stale_rescues = 0
            else:
                stale_rescues += 1
                if stale_rescues > 2:
                    self._raise_deadlock()
            if self.observers.rescue is not None:
                self.observers.rescue()
            self.policy.on_no_runnable()
            self.fabric.refresh_shadows()
            if not self._push_all_stalled() and not self._ready:
                self._raise_deadlock()

    def _sample_parallelism(self) -> None:
        """Record how many cores are concurrently runnable right now."""
        policy = self.policy
        waivers = self.stats.lock_waiver_runs  # keep the probe stats-neutral
        count = 0
        for core in self.cores:
            if core.has_work() and policy.may_run(core):
                count += 1
        self.stats.lock_waiver_runs = waivers
        self.stats.parallelism_samples.append(count)

    def _drain_ready(self) -> bool:
        progressed = False
        ready = self._ready
        policy = self.policy
        interval = self.params.parallelism_sample_interval
        horizon = self._horizon
        deadline = self._deadline
        vtimes = self.fabric.vtime
        in_ready_col = self._in_ready_col
        pops = 0
        while ready:
            # The one place a budgeted run reads the clock: this loop is
            # entered about once per run, so a check outside it would
            # never fire.
            if deadline is not None and time.perf_counter() > deadline:
                raise SimTimeout(
                    f"run exceeded its wall-clock budget at virtual time "
                    f"{self.fabric.max_vtime:g} with {self.live_tasks} "
                    f"tasks live")
            core = ready.popleft()
            in_ready_col[core.cid] = 0
            if (vtimes[core.cid] >= horizon
                    and self._core_next_time(core) >= horizon):
                # Sharded backend: the core's next executable unit lies
                # past the round's window; park until the coordinator
                # raises the horizon.  (The raw vtime alone is not
                # enough — an idle core keeps its old clock while a
                # queued task may start well below it.)  The horizon is
                # INF on the serial backend, so this never fires there.
                self._window_parked.add(core.cid)
                continue
            if interval is not None:
                pops += 1
                if pops % interval == 0:
                    self._sample_parallelism()
            if (self._stop_at_vtime is not None and self.live_tasks > 0
                    and self.fabric.max_vtime >= self._stop_at_vtime):
                # Push the popped core back on the LEFT, untouched: a
                # resumed run (checkpoint/restore, repro.checkpoint)
                # must pop it next and see exactly the state a straight
                # run would have — including the no-work -> _go_idle
                # transition, which is deferred rather than taken here.
                # Once live_tasks hits 0 the run is completing and the
                # stop must not fire: the remaining pops only drain
                # in-flight protocol messages, exactly as a straight
                # run does before returning.
                if not in_ready_col[core.cid]:
                    in_ready_col[core.cid] = 1
                    ready.appendleft(core)
                return progressed
            if not core.has_work():
                self._go_idle(core)
                continue
            # _run_slice performs the drift check itself (it must also apply
            # the reception exemption for inbox work on stalled cores).
            if self._run_slice(core):
                progressed = True
        return progressed

    def _go_idle(self, core: CoreUnit) -> None:
        if self.fabric.active[core.cid]:
            self.fabric.set_idle(core.cid)
        self.policy.on_idle(core)
        hook = self._on_core_idle
        if hook is not None:
            hook(core)

    def _earliest_unit(self, core: CoreUnit):
        """The core's earliest executable unit: ('msg', -1, t),
        ('step', -1, t) or ('start', idx, t); None when no work.

        Queued tasks are candidates only while the core is free
        (non-preemptive scheduling).  The earliest inbox message comes
        from the core's arrival-ordered heap (O(1) peek), not a scan.
        """
        best = None
        best_t = float("inf")
        msg = core.inbox_peek_earliest()
        if msg is not None:
            best = ("msg", -1)
            best_t = msg.arrival
        if core.current is not None:
            vt = self.fabric.vtime[core.cid]
            if vt < best_t:
                best = ("step", -1)
                best_t = vt
        else:
            for i, task in enumerate(core.queue):
                t = task.resume_time if task.gen is not None else task.ready_time
                if t < best_t:
                    best = ("start", i)
                    best_t = t
        if best is None:
            return None
        return best[0], best[1], best_t

    def _run_ordered_slice(self, core: CoreUnit) -> bool:
        """Slice execution for strictly ordered policies (the referee):
        pick the earliest unit each iteration and gate it by its own
        timestamp."""
        policy = self.policy
        budget = self.params.slice_actions
        progressed = False
        admitted = self.observers.admitted
        while budget > 0:
            unit = self._earliest_unit(core)
            if unit is None:
                break
            kind, idx, t = unit
            if not policy.may_run_unit(core, t):
                self._mark_stalled(core)
                return progressed
            if admitted is not None:
                admitted(core)
            if kind == "msg":
                msg = core.inbox_pop_earliest()
                self._process_message(core, msg)
            elif kind == "step":
                self._step_task(core)
            else:
                task = core.queue[idx]
                del core.queue[idx]
                self.runtime.on_task_dequeued(core)
                self._start_or_resume(core, task)
            budget -= 1
            progressed = True
        if core.has_work():
            self._make_ready(core)
        else:
            self._go_idle(core)
        return progressed

    def _run_slice(self, core: CoreUnit, forced: bool = False) -> bool:
        """Run one core until it blocks, stalls, idles or exhausts its slice.

        A ``forced`` slice (the shard waiver) admits every unit without
        asking the policy, and emits no ``admitted`` events.
        """
        if self._ordered_units:
            return self._run_ordered_slice(core)
        observers = self.observers
        if forced:
            may_run, admitted = (lambda c: True), None
        else:
            may_run, admitted = self.policy.may_run, observers.admitted
        budget = self.params.slice_actions
        progressed = False
        reception_exempt = self._reception_exempt
        while budget > 0:
            if not may_run(core):
                # Message reception is simulator infrastructure: a spawned
                # task must reach its destination (discarding the parent's
                # birth date) even while the destination is drift-stalled,
                # or two cores can deadlock through the birth-ledger floor.
                if reception_exempt and core.inbox:
                    msg = core.inbox_pop_fifo()
                    self._process_message(core, msg)
                    budget -= 1
                    progressed = True
                    continue
                self._mark_stalled(core)
                return progressed
            if admitted is not None:
                admitted(core)
            if core.inbox:
                # The run-time polls its lock-free message buffers at block
                # boundaries (between actions), not only between tasks:
                # probe replies and queue-state updates must not wait for
                # the current task to finish, or spawn round trips inflate
                # with the drift bound.
                msg = core.inbox_pop_fifo()
                self._process_message(core, msg)
                budget -= 1
                progressed = True
                continue
            if core.current is not None:
                self._step_task(core)
                budget -= 1
                progressed = True
                continue
            if core.queue:
                task = core.queue.popleft()
                self.runtime.on_task_dequeued(core)
                self._start_or_resume(core, task)
                budget -= 1
                progressed = True
                continue
            break  # no work left
        if core.has_work():
            if may_run(core):
                if admitted is not None:
                    admitted(core)
                self._make_ready(core)
            elif reception_exempt and core.inbox:
                self._make_ready(core)
            else:
                self._mark_stalled(core)
        else:
            # _go_idle always refreshes the policy's view (a core may have
            # serviced messages without ever activating, and its tracker
            # entry would otherwise anchor the horizon forever) and gives
            # the run-time its idle hook (work stealing).
            self._go_idle(core)
        if observers.slice_ended is not None:
            observers.slice_ended(core, progressed)
        return progressed

    # -- time helpers ------------------------------------------------------
    def advance_by(self, core: CoreUnit, cycles: float) -> None:
        """Advance a core's virtual time by busy cycles."""
        if cycles < 0:
            raise SimError("cannot advance by negative cycles")
        if cycles == 0:
            return
        self.fabric.advance(core.cid, self.fabric.vtime[core.cid] + cycles)
        if self.observers.advanced is not None:
            self.observers.advanced(core)
        self._busy_col[core.cid] += cycles
        hook = self._on_advance_hook
        if hook is not None:
            hook(core)

    def advance_to(self, core: CoreUnit, t: float) -> None:
        """Advance a core's virtual time to ``t`` if in its future (waiting)."""
        if t > self.fabric.vtime[core.cid]:
            self.fabric.advance(core.cid, t)
            if self.observers.advanced is not None:
                self.observers.advanced(core)
            hook = self._on_advance_hook
            if hook is not None:
                hook(core)

    def now(self, core: CoreUnit) -> float:
        """The core's current virtual time."""
        return self.fabric.vtime[core.cid]

    # -- messaging -----------------------------------------------------------
    def _emit(
        self,
        kind: MsgKind,
        src: int,
        dst: int,
        t0: float,
        payload: Any,
        size: Optional[float],
        tag: Optional[object],
    ) -> Message:
        """Shared emission tail: build the message, let the NoC assign its
        arrival, deliver it and wake the destination."""
        if size is None:
            size = DEFAULT_SIZES[kind]
        msg = Message(kind, src, dst, t0, size, payload=payload, tag=tag)
        msg.arrival = self.noc.delivery_time(src, dst, size, t0)
        self.stats.messages_by_kind[kind] += 1
        owned = self._owned
        if owned is not None and dst not in owned:
            # Sharded backend: the destination lives in another worker.
            # NoC timing and the sender-side count above already happened
            # here; the sink ships the message to the owning shard, which
            # delivers it via inject_message.
            self._foreign_sink(msg)
        else:
            dest = self.cores[dst]
            dest.inbox_push(msg)
            hook = self._on_event_enqueued
            if hook is not None:
                hook(dest)
            self._make_ready(dest)
        if self.observers.emitted is not None:
            self.observers.emitted(msg)
        return msg

    def send_message(
        self,
        kind: MsgKind,
        src: int,
        dst: int,
        payload: Any = None,
        size: Optional[float] = None,
        tag: Optional[object] = None,
    ) -> Message:
        """Emit an architectural message; timestamps come from the NoC."""
        return self._emit(
            kind, src, dst, self.fabric.vtime[src], payload, size, tag)

    def send_with_overhead(
        self,
        kind: MsgKind,
        core: CoreUnit,
        dst: int,
        payload: Any = None,
        size: Optional[float] = None,
        tag: Optional[object] = None,
    ) -> Message:
        """Charge the sender's overhead, then emit."""
        self.advance_by(core, self._send_cycles[core.cid])
        return self.send_message(kind, core.cid, dst, payload, size, tag)

    def _process_message(self, core: CoreUnit, msg: Message) -> None:
        """Service one architectural message on a core's run-time/NI.

        Servicing does not touch the core's task clock: the run-time
        handles requests independently, and a reply is dated with the
        request's time plus a local processing time (paper, Section II-A).
        A per-core service clock serializes back-to-back handling.
        """
        # Before last_arrival moves: the ordered-inbox check reads it.
        if self.observers.serviced is not None:
            self.observers.serviced(core, msg)
        cid = core.cid
        arrival = msg.arrival
        last_col = self._last_arrival_col
        if arrival < last_col[cid] - 1e-9:
            self.stats.out_of_order_msgs += 1
        last_col[cid] = arrival
        svc_col = self._svc_clock_col
        service = max(arrival, svc_col[cid])
        service += self._msg_cycles[cid]
        svc_col[cid] = service
        self._svc_time = service
        handler = self._handlers.get(msg.kind)
        if handler is None:
            raise SimError(f"no handler registered for {msg.kind}")
        handler(core, msg)
        if self.observers.handled is not None:
            self.observers.handled(core, msg)
        # Servicing consumed this message: refresh the policy's view of the
        # core's event horizon (its next pending event moved forward).
        hook = self._on_advance_hook
        if hook is not None:
            hook(core)

    def service_now(self, core: CoreUnit) -> float:
        """Virtual completion time of the message currently being serviced."""
        return self._svc_time

    def send_message_at(
        self,
        kind: MsgKind,
        core: CoreUnit,
        dst: int,
        t0: float,
        payload: Any = None,
        size: Optional[float] = None,
        tag: Optional[object] = None,
    ) -> Message:
        """Emit a message from a core's run-time at an explicit send time."""
        t0 += self._send_cycles[core.cid]
        return self._emit(kind, core.cid, dst, t0, payload, size, tag)

    def send_service_message(
        self,
        kind: MsgKind,
        core: CoreUnit,
        dst: int,
        payload: Any = None,
        size: Optional[float] = None,
        tag: Optional[object] = None,
        extra_delay: float = 0.0,
    ) -> Message:
        """Emit a message from a core's run-time while servicing a request.

        The send time is the request's service-completion time plus the
        send overhead (and any handler-specific delay), not the core's
        task clock — a reply is dated with the request time plus a local
        processing time (paper, Section II-A).
        """
        return self.send_message_at(
            kind, core, dst, self._svc_time + extra_delay,
            payload=payload, size=size, tag=tag,
        )

    def _handle_user_msg(self, core: CoreUnit, msg: Message) -> None:
        """Deliver a USER message to a recv waiter or park it in the mailbox."""
        for i, (task, tag) in enumerate(core.recv_waiters):
            if tag is None or tag == msg.tag:
                del core.recv_waiters[i]
                self.wake_task(task, msg, self.service_now(core),
                               ctx_switch=True)
                return
        core.park_user_message(msg)

    # -- task lifecycle ----------------------------------------------------
    def register_task(self, task: Task) -> None:
        """Account for a newly spawned (remote) task."""
        self.live_tasks += 1
        self.stats.tasks_spawned_remote += 1

    def wake_task(
        self, task: Task, value: Any, at_time: float, ctx_switch: bool = True
    ) -> None:
        """Move a suspended task to its core's queue, resumable at ``at_time``."""
        if task.state not in (TaskState.SUSPENDED,):
            raise SimError(f"cannot wake task in state {task.state}")
        task.state = TaskState.READY
        task.resume_value = value
        task.resume_time = at_time
        task.resume_is_ctx_switch = ctx_switch
        task.waiting_on = None
        core = self.cores[task.core]
        core.enqueue(task)
        hook = self._on_event_enqueued
        if hook is not None:
            hook(core)
        self._make_ready(core)

    def suspend_current(self, core: CoreUnit, reason: str) -> Task:
        """Park the core's current task (blocked on ``reason``)."""
        task = core.current
        if task is None:
            raise SimError("no current task to suspend")
        if self.observers.task_suspended is not None:
            self.observers.task_suspended(core, task)
        task.state = TaskState.SUSPENDED
        task.waiting_on = reason
        core.current = None
        # The core's horizon no longer includes the task's clock.
        hook = self._on_advance_hook
        if hook is not None:
            hook(core)
        return task

    def _start_or_resume(self, core: CoreUnit, task: Task) -> None:
        params = self.params
        if task.state == TaskState.NEW:
            if core.annotator is None:
                table, sample, predictor = self._annotator_parts
                core.annotator = BlockAnnotator(
                    table.scaled(core.speed_factor), sample_branches=sample,
                    predictor=replace(predictor,
                                      seed=self.seed * 1_000_003 + core.cid))
            if not self.fabric.active[core.cid]:
                self.fabric.set_active(core.cid, task.ready_time)
                self.policy.on_activation(core)
            self.advance_to(core, task.ready_time)
            self.advance_by(core, core.scaled(params.task_start_cycles))
            task.state = TaskState.RUNNING
            task.core = core.cid
            task.start_time = self.now(core)
            ctx = TaskContext(self, core.cid, task)
            task.gen = task.fn(ctx, *task.args)
            task.resume_value = None
            core.current = task
            self.stats.tasks_started += 1
            self.stats.context_switches += 1
        elif task.state == TaskState.READY:
            if not self.fabric.active[core.cid]:
                self.fabric.set_active(core.cid, task.resume_time)
                self.policy.on_activation(core)
            self.advance_to(core, task.resume_time)
            if task.resume_is_ctx_switch:
                self.advance_by(core, core.scaled(params.context_switch_cycles))
            task.state = TaskState.RUNNING
            core.current = task
            self.stats.context_switches += 1
        else:
            raise SimError(f"cannot start task in state {task.state}")
        # A start/resume changes the core's horizon even when no cycles
        # were charged (e.g. a past-dated resume): refresh the policy.
        hook = self._on_advance_hook
        if hook is not None:
            hook(core)
        if self.observers.task_started is not None:
            self.observers.task_started(core, task)

    def _step_task(self, core: CoreUnit) -> None:
        """Execute the current task's next action through the handler
        table (or finish the task when its generator returns)."""
        task = core.current
        value = task.resume_value
        task.resume_value = None
        stats = self.stats
        try:
            action = task.gen.send(value)
        except StopIteration as stop:
            task.result = stop.value
            self._finish_task(core, task)
            return
        except SimError:
            raise
        except Exception as exc:
            raise TaskError(
                f"simulated task {task!r} raised {type(exc).__name__} "
                f"on core {core.cid} at vtime "
                f"{self.fabric.vtime[core.cid]:.1f}: {exc}",
                task=task, core=core.cid,
                vtime=self.fabric.vtime[core.cid],
            ) from exc
        stats.actions += 1
        max_actions = self.params.max_host_actions
        if max_actions is not None and stats.actions > max_actions:
            raise SimError("max_host_actions exceeded (runaway simulation?)")
        if self.observers.dispatched is not None:
            self.observers.dispatched(core, action)
        handler = self._action_handlers.get(type(action))
        if handler is None:
            raise SimError(f"task yielded unknown action {action!r}")
        handler(core, task, action)

    def _finish_task(self, core: CoreUnit, task: Task) -> None:
        task.state = TaskState.DONE
        task.finish_time = self.now(core)
        core.current = None
        self.live_tasks -= 1
        if task.finish_time > self.last_finish_time:
            self.last_finish_time = task.finish_time
        # Before the run-time's hook, which charges the group decrement:
        # the task's span ends at its last action.
        if self.observers.task_finished is not None:
            self.observers.task_finished(core, task)
        self.runtime.on_task_finished(core, task)

    # -- action handlers -----------------------------------------------------
    def _do_compute(self, core: CoreUnit, task: Task, action: Compute) -> None:
        params = self.params
        cost = core.scaled(action.cycles) * action.repeat
        if action.block is not None:
            cost += core.annotator.cost_repeated(action.block, action.repeat)
        cost *= params.compute_overhead_factor
        if params.icache_block_cycles:
            cost += core.scaled(params.icache_block_cycles)
        self.advance_by(core, cost)
        self.stats.compute_actions += 1

    def _do_mem(self, core: CoreUnit, task: Task, action: MemAccess) -> None:
        latency = self.memory.access(core, action)
        self.advance_by(core, latency)
        self.stats.mem_accesses += 1

    def _do_cell(self, core: CoreUnit, task: Task, action: CellAccess) -> None:
        self.stats.cell_accesses += 1
        result = self.memory.cell_access(core, task, action)
        if result is None:
            # Remote fetch in flight; task suspended by the memory model.
            self.stats.remote_cell_accesses += 1
        else:
            self.advance_by(core, result)
            target = action.cell
            if hasattr(target, "deref"):
                target = target.deref()
            task.resume_value = target

    def _do_try_spawn(self, core: CoreUnit, task: Task, action: TrySpawn) -> None:
        self.runtime.try_spawn(core, task, action)

    def _do_join(self, core: CoreUnit, task: Task, action: Join) -> None:
        self.runtime.join(core, task, action.group)

    def _do_acquire(self, core: CoreUnit, task: Task, action: Acquire) -> None:
        self.runtime.acquire(core, task, action.lock)

    def _do_release(self, core: CoreUnit, task: Task, action: Release) -> None:
        self.runtime.release(core, task, action.lock)

    def _do_send(self, core: CoreUnit, task: Task, action: SendMsg) -> None:
        self.send_with_overhead(
            MsgKind.USER, core, action.dst, payload=action.payload,
            size=action.size, tag=action.tag,
        )
        task.resume_value = None

    def _do_recv(self, core: CoreUnit, task: Task, action: RecvMsg) -> None:
        for i, msg in enumerate(core.user_mailbox):
            if action.tag is None or msg.tag == action.tag:
                del core.user_mailbox[i]
                self.advance_to(core, msg.arrival)
                task.resume_value = msg
                return
        suspended = self.suspend_current(core, "recv")
        core.add_recv_waiter(suspended, action.tag)

    def _do_localtime(self, core: CoreUnit, task: Task, action: LocalTime) -> None:
        task.resume_value = self.now(core)

    def _do_yield(self, core: CoreUnit, task: Task, action: YieldCpu) -> None:
        task.resume_value = None

    # -- diagnostics -----------------------------------------------------
    def describe(self) -> str:
        """Human-readable summary of the machine configuration and state."""
        policy = self.policy
        label = policy.bound_label(self)
        bound = f" ({label})" if label else ""
        tel = self.telemetry
        lines = [
            f"Machine: {self.n_cores} cores on {self.topo.name}",
            f"  sync policy     : {self.policy.name}" + bound,
            f"  telemetry       : "
            f"{tel.describe() if tel is not None else 'off'}",
            f"  memory model    : {type(self.memory).__name__}",
            f"  shadow time     : "
            f"{'on (' + self.fabric.shadow_mode + ')' if self.fabric.shadow_enabled else 'off'}",
            f"  speed factors   : "
            f"{sorted(set(c.speed_factor for c in self.cores))}",
        ]
        if self._ran:
            stats = self.stats
            lines += [
                f"  completion      : {stats.completion_vtime:.1f} cycles",
                f"  tasks           : {stats.tasks_started} started, "
                f"{stats.tasks_spawned_remote} remote, "
                f"{stats.tasks_run_inline} inline",
                f"  messages        : {stats.total_messages}",
                f"  drift stalls    : {stats.drift_stalls}",
                f"  host wall       : {stats.wall_seconds:.3f} s",
            ]
        return "\n".join(lines)

    def _raise_deadlock(self) -> None:
        diag = {
            "live_tasks": self.live_tasks,
            "stalled_cores": sorted(self._stalled),
            "cores": {},
        }
        for core in self.cores:
            if core.has_work() or core.stalled:
                diag["cores"][core.cid] = {
                    "active": self.fabric.active[core.cid],
                    "vtime": self.fabric.vtime[core.cid],
                    "floor": self.fabric.floor(core.cid),
                    "queue": len(core.queue),
                    "inbox": len(core.inbox),
                    "current": repr(core.current),
                    "stalled": core.stalled,
                }
        raise SimDeadlock(
            f"simulation cannot progress: {self.live_tasks} live tasks, "
            f"{len(self._stalled)} drift-stalled cores",
            diagnostics=diag,
        )
