"""Virtual-time synchronization policies.

The paper's contribution is *spatial synchronization*: a core may run ahead
of its topological neighbours by at most a fixed drift ``T``, enforced with
purely local information.  For the related-work comparisons and ablations we
implement, inside the same engine, the alternative schemes the paper
discusses (Section VII):

* ``ConservativeSync`` — events processed in strict virtual-time order
  (Chandy/Misra-style); this is what our cycle-level referee uses.
* ``GlobalQuantumSync`` — WWT-style global quantum barriers.
* ``BoundedSlackSync`` — SlackSim's bounded slack against the global time.
* ``LaxP2PSync`` — Graphite's random-referee periodic checks.
* ``UnboundedSync`` — free-running cores (no synchronization at all).
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from .coreunit import CoreUnit

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Machine

INF = math.inf


class ActiveMinTracker:
    """Lazy min-heap over the virtual times of active cores.

    Entries are (time, core, version); stale entries (older version, or a
    time below the core's current value) are discarded at pop time.
    """

    def __init__(self, n_cores: int) -> None:
        self._heap: List[tuple] = []
        self._version = [0] * n_cores
        self._value = [INF] * n_cores

    def update(self, cid: int, time: float) -> None:
        """Record a core's current virtual time (or next event time)."""
        self._version[cid] += 1
        self._value[cid] = time
        heapq.heappush(self._heap, (time, cid, self._version[cid]))

    def remove(self, cid: int) -> None:
        """Mark a core as not participating (idle with empty inbox)."""
        self._version[cid] += 1
        self._value[cid] = INF

    def min(self) -> float:
        """Smallest live time; INF when no core participates."""
        heap = self._heap
        while heap:
            time, cid, version = heap[0]
            if version == self._version[cid] and self._value[cid] == time:
                return time
            heapq.heappop(heap)
        return INF


class SyncPolicy:
    """Base synchronization policy."""

    name = "base"
    #: Whether a drift-stalled core may still *receive* (process inbox
    #: messages).  Reception is simulator infrastructure in SiMany; strict
    #: event-ordered policies (conservative) keep it gated.
    reception_exempt = False
    #: Whether the engine must select each core's earliest unit (message /
    #: task step / task start) and gate it via ``may_run_unit(core, t)``,
    #: which such a policy must define.  Inbox messages are then serviced
    #: in arrival-timestamp order instead of host delivery order.
    ordered_units = False
    #: Whether the policy queries per-core event horizons
    #: (``CoreUnit.next_event_time``); the engine then maintains the
    #: arrival-ordered inbox heap so those queries are O(1).
    uses_event_times = False
    #: Whether admissions promise the fabric's neighbour drift rule
    #: (``VirtualTimeFabric.drift_ok``).  The sanitizer
    #: (``repro.verify``) cross-checks every positive ``may_run`` answer
    #: against the fabric's reference implementation when this is set —
    #: policies gating on other conditions (global quantum, slack, ...)
    #: make no such promise and are not drift-checked.
    checks_drift = False

    def attach(self, machine: "Machine") -> None:
        self.machine = machine

    def may_run(self, core: CoreUnit) -> bool:
        raise NotImplementedError

    def on_advance(self, core: CoreUnit) -> None:
        """Called after a core's virtual time advanced."""

    def on_idle(self, core: CoreUnit) -> None:
        """Called when a core goes idle."""

    def on_activation(self, core: CoreUnit) -> None:
        """Called when an idle core becomes active."""

    def on_no_runnable(self) -> bool:
        """Last-chance hook when no core is runnable.

        Returns True when policy state changed such that a retry may find
        runnable cores (e.g. a quantum barrier advanced).
        """
        return False

    def bound_label(self, machine: "Machine") -> str:
        """Human-readable synchronization bound for ``describe()``
        banners and telemetry summaries; "" when the policy has none
        (unbounded) or none expressible as a single number
        (conservative ordering)."""
        return ""


class SpatialSync(SyncPolicy):
    """The paper's spatial synchronization (Section II-A).

    A core stalls when its virtual time exceeds its most-late neighbour's
    (or the birth time of an in-flight spawned task) by more than ``T``.
    A core holding a lock is temporarily exempted so that it can release
    its resources (Section II-B deadlock avoidance).
    """

    name = "spatial"
    reception_exempt = True
    checks_drift = True

    def __init__(self) -> None:
        self.machine: Optional["Machine"] = None

    def may_run(self, core: CoreUnit) -> bool:
        machine = self.machine
        fabric = machine.fabric
        cid = core.cid
        # Inlined fabric.drift_ok: this is the single hottest call under
        # spatial sync (once per scheduler-loop iteration per core), and
        # the extra call level is measurable.  drift_ok returns True for
        # idle cores, so the activation case needs no separate check.
        if not fabric.active[cid]:
            return True
        if fabric._floor_cache_on:
            # Cached-floor fast path (fast shadow mode): the cache
            # holds a lower bound on the drift floor, so a pass
            # against the bound implies a pass against the true floor
            # (the comparison uses the exact same float expression, and
            # x <= lb + T + eps with lb <= floor implies
            # x <= floor + T + eps by IEEE monotonicity).  On a miss the
            # exact floor is re-derived below, cached, and re-tested —
            # so admissions, and the lock-waiver accounting, are
            # bit-identical to the reference fabric.drift_ok.
            if fabric.vtime[cid] <= fabric._floor_lb[cid] + fabric.T + 1e-9:
                return True
        elif fabric._dirty and fabric._exact:
            fabric._full_recompute()
        nbrs = fabric._neighbors[cid]
        if nbrs:
            floor = min(map(fabric.published.__getitem__, nbrs))
        else:
            floor = INF
        births = fabric._births_min[cid]
        if births < floor:
            floor = births
        # Exact mode never reads the bound, so the store is harmless there.
        fabric._floor_lb[cid] = floor
        if fabric.vtime[cid] <= floor + fabric.T + 1e-9:
            return True
        if core.locks_held > 0:
            machine.stats.lock_waiver_runs += 1
            return True
        return False

    def bound_label(self, machine: "Machine") -> str:
        return f"T={machine.fabric.T:g}"


class EventAnchoredPolicy(SyncPolicy):
    """Base for policies anchored on a global event horizon.

    The horizon is the minimum over cores of each core's next event time
    (``_core_time``).  ``ConservativeSync`` gates each unit by its own
    timestamp through ``may_run_unit`` (it sets ``ordered_units``);
    ``GlobalQuantumSync`` and ``BoundedSlackSync`` gate whole slices
    through ``may_run``, as every other policy does.

    In a tasking model, cores go idle between tasks while their *next*
    piece of work (an undelivered message) already has a virtual
    timestamp.  Anchoring only on active cores would let the rest of the
    machine race arbitrarily far ahead of undelivered work, so the tracker
    follows each core's event time: its virtual time while active, its
    earliest pending message arrival while idle.
    """

    uses_event_times = True

    def attach(self, machine: "Machine") -> None:
        super().attach(machine)
        self.tracker = ActiveMinTracker(machine.n_cores)

    def _core_time(self, core: CoreUnit) -> float:
        """The earliest event this core can produce next (its horizon).

        A busy core's next action happens at its virtual time (scheduling
        is non-preemptive: queued tasks cannot be promised while a task
        runs), but a pending inbox message may carry an earlier timestamp
        (the run-time services messages independently of the task clock).
        A free core's next event is its earliest message or queued task.
        """
        fabric = self.machine.fabric
        t = core.next_event_time()
        if core.current is not None:
            # Busy core: its next action happens at its virtual time.
            vt = fabric.vtime[core.cid]
            if vt < t:
                t = vt
        else:
            # Free core: its next unit is a message or a queued task; its
            # own clock is not an event by itself.
            start = core.next_start_time()
            if start < t:
                t = start
        return t

    def on_advance(self, core: CoreUnit) -> None:
        self.tracker.update(core.cid, self._core_time(core))

    def on_idle(self, core: CoreUnit) -> None:
        t = self._core_time(core)
        if math.isinf(t):
            self.tracker.remove(core.cid)
        else:
            self.tracker.update(core.cid, t)

    def on_activation(self, core: CoreUnit) -> None:
        self.tracker.update(core.cid, self._core_time(core))

    def on_event_enqueued(self, core: CoreUnit) -> None:
        """Engine hook: an event (message or wake) landed on a core.

        Active cores too: an early-timestamped message on a busy core
        lowers that core's horizon, and the rest of the machine must not
        advance past it before it is serviced.
        """
        self.tracker.update(core.cid, self._core_time(core))


class ConservativeSync(EventAnchoredPolicy):
    """Strict virtual-time order: only globally-earliest work may proceed.

    This realizes the classical conservative discrete-event discipline and
    is the engine mode our cycle-level referee runs under: with zero drift,
    (almost) no message is ever processed out of virtual-time order.
    """

    name = "conservative"
    ordered_units = True

    def __init__(self, epsilon: float = 1e-9) -> None:
        self.epsilon = epsilon

    def may_run(self, core: CoreUnit) -> bool:
        return self._core_time(core) <= self.tracker.min() + self.epsilon

    def may_run_unit(self, core: CoreUnit, t: float) -> bool:
        return t <= self.tracker.min() + self.epsilon


class GlobalQuantumSync(EventAnchoredPolicy):
    """WWT-style quantum barriers: all cores run within a global window.

    Cores (and idle-core activations) may execute while their event time is
    below ``epoch + quantum``; when none can, the epoch advances to the
    minimum event time.
    """

    name = "quantum"

    def __init__(self, quantum: float = 100.0) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self.epoch = 0.0

    def may_run(self, core: CoreUnit) -> bool:
        if core.locks_held > 0:
            return True
        return self._core_time(core) < self.epoch + self.quantum

    def on_no_runnable(self) -> bool:
        new_epoch = self.tracker.min()
        if math.isinf(new_epoch) or new_epoch <= self.epoch:
            return False
        self.epoch = new_epoch
        return True

    def bound_label(self, machine: "Machine") -> str:
        return f"quantum={self.quantum:g}"


class BoundedSlackSync(EventAnchoredPolicy):
    """SlackSim's bounded slack: drift bounded against the global horizon."""

    name = "bounded_slack"

    def __init__(self, slack: float = 100.0) -> None:
        if slack <= 0:
            raise ValueError("slack must be positive")
        self.slack = slack

    def may_run(self, core: CoreUnit) -> bool:
        if core.locks_held > 0:
            return True
        gmin = self.tracker.min()
        if math.isinf(gmin):
            return True
        return self._core_time(core) <= gmin + self.slack

    def bound_label(self, machine: "Machine") -> str:
        return f"slack={self.slack:g}"


class LaxP2PSync(SyncPolicy):
    """Graphite's LaxP2P: periodic drift checks against a random referee.

    Every ``check_period`` cycles of local progress, a core compares itself
    against a randomly chosen active core; if it is ahead by more than
    ``slack`` it sleeps until that referee catches up.  Unlike spatial
    synchronization there is no fixed guarantee on total drift, and the
    referee may be an arbitrarily distant core (paper, Section VII).
    """

    name = "laxp2p"

    def __init__(
        self, slack: float = 100.0, check_period: float = 100.0, seed: int = 0
    ) -> None:
        if slack <= 0 or check_period <= 0:
            raise ValueError("slack and check period must be positive")
        self.slack = slack
        self.check_period = check_period
        self._rng = np.random.default_rng(seed)

    def may_run(self, core: CoreUnit) -> bool:
        fabric = self.machine.fabric
        if not fabric.active[core.cid]:
            return True
        if core.locks_held > 0:
            return True
        if core.lax_ref is not None:
            ref_time = fabric.published[core.lax_ref]
            if fabric.vtime[core.cid] > ref_time + self.slack:
                return False
            core.lax_ref = None
        return True

    def on_advance(self, core: CoreUnit) -> None:
        fabric = self.machine.fabric
        vt = fabric.vtime[core.cid]
        if vt < core.lax_next_check:
            return
        core.lax_next_check = vt + self.check_period
        # Pick a random other active core as referee.
        actives = [
            c for c in range(self.machine.n_cores)
            if c != core.cid and fabric.active[c]
        ]
        if not actives:
            return
        ref = int(actives[self._rng.integers(len(actives))])
        if vt > fabric.published[ref] + self.slack:
            core.lax_ref = ref

    def bound_label(self, machine: "Machine") -> str:
        return f"slack={self.slack:g}"


class UnboundedSync(SyncPolicy):
    """No synchronization: cores free-run (SlackSim's unbound slack)."""

    name = "unbounded"

    def may_run(self, core: CoreUnit) -> bool:
        return True


#: Every policy ``make_policy`` can build, by name.
POLICIES = {
    "spatial": SpatialSync,
    "conservative": ConservativeSync,
    "quantum": GlobalQuantumSync,
    "bounded_slack": BoundedSlackSync,
    "laxp2p": LaxP2PSync,
    "unbounded": UnboundedSync,
}


def make_policy(name: str, **kwargs) -> SyncPolicy:
    """Factory: build a sync policy by name."""
    if name not in POLICIES:
        raise ValueError(
            f"unknown sync policy {name!r}; choose from {sorted(POLICIES)}")
    return POLICIES[name](**kwargs)
