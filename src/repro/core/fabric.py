"""Virtual-time fabric: distributed clocks, spatial drift bookkeeping.

Every simulated core maintains its own private virtual time while active
(paper, Section II-A).  The fabric tracks, per core:

* its *published* time — the virtual time neighbours see through their
  proxies.  Control "VTime update" messages have no architectural existence,
  so proxy updates are modelled as immediate writes to this table;
* its *shadow virtual time* when idle — ``min(neighbour times) + T`` — which
  keeps non-connected sets of active cores synchronized (Figure 2);
* the *birth times* of tasks it has spawned that have not yet reached their
  destination core, counted as if the child had started on a neighbour
  (Figure 3).

The drift rule: a core stalls when its virtual time exceeds the time of its
most-late neighbour (including spawn births) by more than the user-chosen
constant ``T``.  This local bound implies a global bound of
``diameter x T`` between any two cores.

The ``shadow`` setting picks one of three modes:

* ``exact`` — the published times of idle cores always equal the fixpoint
  ``min over active cores a of (vtime(a) + T * hops(i, a))``, recomputed
  lazily (multi-source Dijkstra) whenever an idle/active transition could
  have lowered a value.  Used by correctness tests and the shadow ablation.
* ``fast`` — published times are kept monotone: increases propagate through
  increase-only relaxation, decreases are skipped.  A core's own drift
  check still uses its true virtual time; only its neighbours may see a
  stale-high value, allowing them at most one extra ``T`` of drift.  This
  is the default for large simulations.
* ``off`` — no shadows: an idle core publishes ``INF`` and never
  constrains its neighbours (the shadow ablation's baseline).  Active
  cores publish monotonically, as under ``fast``.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Callable, Dict, List, Optional

from .soa import CoreStateArrays
from ..network.topology import Topology

INF = math.inf

#: The values of the ``shadow`` setting (see the module docstring).
SHADOW_MODES = ("fast", "exact", "off")


def exact_shadow_fixpoint(
    neighbors: List[tuple],
    active: List[bool],
    vtime: List[float],
    T: float,
) -> List[float]:
    """Exact published-time fixpoint: ``min over active cores a of
    (vtime(a) + T * hops(i, a))`` for every idle core ``i``.

    Multi-source Dijkstra from the active cores, with ``T`` added per
    hop using the same left-to-right float accumulation as the engine's
    incremental relax waves (bit-identical results).  Standalone so the
    shard coordinator can run it over the *global* core set — a worker
    alone would treat remote active cores as idle and publish
    stale-high shadows for them, which is exactly the drift-bound
    violation the sharded backend must avoid.

    ``active`` and ``vtime`` may be numpy planes (the coordinator calls
    this straight on the shared round board); they are flattened to
    plain lists first so the hot loop indexes native floats instead of
    boxing numpy scalars — same bits, roughly 2x less per-pop cost —
    and the result is always a list of native floats.
    """
    if hasattr(active, "tolist"):
        active = active.tolist()
    if hasattr(vtime, "tolist"):
        vtime = vtime.tolist()
    n = len(neighbors)
    pub = [INF] * n
    heap: List[tuple] = []
    for c in range(n):
        if active[c]:
            pub[c] = vtime[c]
            heap.append((pub[c], c))
    heapq.heapify(heap)
    while heap:
        d, c = heapq.heappop(heap)
        if d > pub[c]:
            continue
        cand = d + T
        for j in neighbors[c]:
            if not active[j] and cand < pub[j]:
                pub[j] = cand
                heapq.heappush(heap, (cand, j))
    return pub


class VirtualTimeFabric:
    """Shared virtual-time state for all cores of one machine.

    ``shadow`` is one of :data:`SHADOW_MODES` (see the module
    docstring); anything else is a ``ValueError``.
    """

    def __init__(
        self,
        topo: Topology,
        drift_bound: float,
        shadow: str = "fast",
        on_publish_increase: Optional[Callable[[int], None]] = None,
        soa: Optional[CoreStateArrays] = None,
    ) -> None:
        if drift_bound <= 0:
            raise ValueError("drift bound T must be positive")
        if shadow not in SHADOW_MODES:
            raise ValueError(
                f"shadow must be one of {list(SHADOW_MODES)}, not {shadow!r}")
        self.topo = topo
        self.T = drift_bound
        self.shadow = shadow
        #: Idle cores carry shadows (relax waves, rescue recomputes).
        self._shadows_on = shadow != "off"
        self.on_publish_increase = on_publish_increase

        n = topo.n_cores
        self.n_cores = n
        # One neighbour tuple per core, shared with the plane when given.
        self._neighbors: List[tuple] = (
            soa.neighbors if soa is not None
            else [topo.neighbors(c) for c in range(n)])
        # Struct-of-arrays core-state plane: the engine shares one plane
        # across fabric, cores and dispatcher; a standalone fabric (unit
        # tests) owns a private one.  ``vtime``/``active``/``published``
        # keep their historical names but are now *views into the plane*
        # (array('d') / array('b') columns) — indexing semantics are
        # unchanged, identity is shared.
        if soa is None:
            soa = CoreStateArrays(n, self._neighbors)
        self.soa = soa
        self.vtime = soa.vtime
        self.active = soa.active
        self.published = soa.published
        # Birth ledger: per core, timestamp -> outstanding count; None
        # until the core's first spawn (most cores never spawn).
        self._births: List[Optional[Dict[float, int]]] = [None] * n
        self._births_min = soa.births_min
        self._dirty = True  # shadows need a full recompute
        self._exact = shadow == "exact"
        self.max_vtime = 0.0
        self.shadow_recomputes = 0
        #: Cached lower bound on each core's drift floor (see
        #: ``SpatialSync.may_run``): publish increases keep a lower
        #: bound trivially valid, and every event that can *lower* a
        #: floor (spawn births, first INF->finite publishes, full
        #: recomputes) lowers or resets the bound too.  That holds only
        #: under fast (monotone) shadow mode — exact-mode recomputes may
        #: lower arbitrary values lazily — so the cache is armed from the
        #: mode alone and ``may_run`` uses the reference computation
        #: under ``shadow == "exact"``.
        self._floor_lb = soa.floor_lb
        self._floor_cache_on = not self._exact
        # Number of idle neighbours per core (all cores start idle).
        # Relaxation waves from an advance can only act on idle
        # neighbours, so advances gate the wave on this counter — on a
        # busy machine most advances then skip the wave entirely.
        self._idle_nbr_count: List[int] = [
            len(nbrs) for nbrs in self._neighbors]
        #: Per core, the neighbour that gave its last computed minimum.
        #: Any neighbour bounds that minimum, so a stale witness costs one
        #: ``min()``, never a bit: derived state, not checkpointed.
        self._held_by: List[int] = [
            nbrs[0] if nbrs else c for c, nbrs in enumerate(self._neighbors)]
        #: Opt-in telemetry registry (set via Machine.attach_telemetry).
        #: Observation-only: guards cost one attribute load when off.
        self.telemetry = None

    # -- core state transitions ------------------------------------------
    def set_active(self, cid: int, start_time: float) -> None:
        """Core ``cid`` gains a virtual time of its own (idle -> active)."""
        if self.active[cid]:
            raise RuntimeError(f"core {cid} already active")
        self.active[cid] = 1
        counts = self._idle_nbr_count
        for j in self._neighbors[cid]:
            counts[j] -= 1
        self.vtime[cid] = start_time
        if start_time > self.max_vtime:
            self.max_vtime = start_time
        old = self.published[cid]
        if not self._exact:
            # Monotone publishing: never lower what neighbours already saw.
            if math.isinf(old) or start_time > old:
                self.published[cid] = start_time
                if not math.isinf(old):
                    self._notify(cid)
                    self._relax_up(cid)
                else:
                    self._lower_neighbor_floors(cid, start_time)
        else:
            self.published[cid] = start_time
            self._dirty = True

    def set_idle(self, cid: int) -> None:
        """Core ``cid`` loses its virtual time (active -> idle)."""
        if not self.active[cid]:
            raise RuntimeError(f"core {cid} already idle")
        self.active[cid] = False
        counts = self._idle_nbr_count
        for j in self._neighbors[cid]:
            counts[j] += 1
        if not self._shadows_on:
            self.published[cid] = INF
            self._notify(cid)
            return
        if self._exact:
            self._dirty = True
        else:
            # Fast mode: shadow starts at the last vtime (monotone) and will
            # be raised by relaxation as neighbours advance.
            self._relax_self(cid)

    def advance(self, cid: int, new_time: float) -> None:
        """Advance an active core's virtual time (monotone)."""
        if not self.active[cid]:
            raise RuntimeError(f"core {cid} is idle; cannot advance")
        if new_time < self.vtime[cid] - 1e-9:
            raise ValueError(
                f"virtual time must be monotone on core {cid}: "
                f"{new_time} < {self.vtime[cid]}"
            )
        if new_time <= self.vtime[cid]:
            return
        self.vtime[cid] = new_time
        if new_time > self.max_vtime:
            self.max_vtime = new_time
        if new_time > self.published[cid]:
            self.published[cid] = new_time
            self._notify(cid)
            # The wave can only raise idle neighbours; skip it when the
            # whole neighbourhood is busy (the common case mid-run).
            if self._shadows_on and self._idle_nbr_count[cid]:
                self._relax_up(cid)

    # -- shard proxy anchoring -------------------------------------------
    def set_proxy_time(self, cid: int, value: float) -> None:
        """Anchor a boundary proxy at its owning worker's published time.

        Sharded backend only: core ``cid`` is simulated by another
        worker process, and this replica holds it as a *proxy*.  The
        first write flips it active so local drift checks and relax
        waves treat it as a true anchor — a worker-local recompute that
        considered it idle would shadow *over* it and publish
        stale-high values, violating the drift bound.  Updates are
        monotone (raise-only); stalled neighbours are woken through the
        usual publish-increase hook.  Lowering is deliberately not
        supported: published times are *permissions*, and revoking one
        can wedge cores that already ran under it in a mutually-stalled
        state the serial engine (whose fast-mode values are equally
        monotone between rescues) never reaches.
        """
        if not self.active[cid]:
            self.active[cid] = True
            counts = self._idle_nbr_count
            for j in self._neighbors[cid]:
                counts[j] -= 1
        if value > self.vtime[cid]:
            self.vtime[cid] = value
        if value > self.max_vtime:
            self.max_vtime = value
        old = self.published[cid]
        if math.isinf(old) or value > old:
            self.published[cid] = value
            if not math.isinf(old):
                self._notify(cid)
                if self._shadows_on and self._idle_nbr_count[cid]:
                    self._relax_up(cid)
            else:
                self._lower_neighbor_floors(cid, value)

    def adopt_shadow(self, cid: int, value: float) -> None:
        """Adopt a coordinator-computed exact shadow for an idle core.

        Used by the sharded backend, where the coordinator runs
        :func:`exact_shadow_fixpoint` over the global (active, vtime)
        state each round and pushes the results back to every worker's
        replica — fast-mode shadows of an idle region freeze when the
        cores that would relax them live in another shard.  Adoption is
        *raise-only* (with the usual first-write-over-INF exception):
        the rescue exists to grant stalled cores more room, and a value
        below the local one only means local relaxation was already
        ahead of the snapshot the coordinator computed from.  Active
        cores — including anchored proxies — are left untouched.
        """
        if self.active[cid]:
            return
        old = self.published[cid]
        if math.isinf(old) or value > old:
            if math.isinf(old):
                self._lower_neighbor_floors(cid, value)
            self.published[cid] = value
            self._notify(cid)
            if self._shadows_on and self._idle_nbr_count[cid]:
                self._relax_up(cid)

    # -- spawn birth ledger -------------------------------------------------
    def add_birth(self, cid: int, timestamp: float) -> None:
        """Record a spawned task's birth time on its parent's core."""
        births = self._births[cid]
        if births is None:
            births = self._births[cid] = {}
        births[timestamp] = births.get(timestamp, 0) + 1
        if timestamp < self._births_min[cid]:
            self._births_min[cid] = timestamp
        lb = self._floor_lb
        if timestamp < lb[cid]:
            lb[cid] = timestamp

    def remove_birth(self, cid: int, timestamp: float) -> None:
        """Discard a birth date once the task reached its destination."""
        births = self._births[cid]
        count = births.get(timestamp) if births else None
        if not count:
            raise RuntimeError(f"no pending birth at t={timestamp} on core {cid}")
        if count == 1:
            del births[timestamp]
        else:
            births[timestamp] = count - 1
        if timestamp == self._births_min[cid]:
            self._births_min[cid] = min(births) if births else INF

    def births_min(self, cid: int) -> float:
        """Earliest outstanding spawn-birth timestamp on a core (INF if none)."""
        return self._births_min[cid]

    # -- drift checks ---------------------------------------------------------
    def neighbor_floor(self, cid: int) -> float:
        """Most-late neighbour time as seen through proxies (may be INF)."""
        if self._dirty and self._exact:
            self._full_recompute()
        nbrs = self._neighbors[cid]
        if not nbrs:
            return INF
        # min over a map of the C-level list getter: measurably faster
        # than a generator expression on this hot path (every drift check).
        return min(map(self.published.__getitem__, nbrs))

    def floor(self, cid: int) -> float:
        """Drift floor: most-late neighbour or pending spawn birth."""
        floor = self.neighbor_floor(cid)
        births = self._births_min[cid]
        return births if births < floor else floor

    def drift_ok(self, cid: int) -> bool:
        """True when the core may keep executing under the drift rule.

        This is the innermost check of every scheduling decision under
        spatial sync, so ``floor``/``neighbor_floor`` are inlined here.
        """
        if not self.active[cid]:
            return True
        if self._dirty and self._exact:
            self._full_recompute()
        nbrs = self._neighbors[cid]
        if nbrs:
            floor = min(map(self.published.__getitem__, nbrs))
        else:
            floor = INF
        births = self._births_min[cid]
        if births < floor:
            floor = births
        return self.vtime[cid] <= floor + self.T + 1e-9

    def drift(self, cid: int) -> float:
        """Current drift of a core over its floor (negative = behind)."""
        floor = self.floor(cid)
        if math.isinf(floor):
            return -INF
        return self.vtime[cid] - floor

    def drift_report(self, cid: int) -> dict:
        """Snapshot of every input to the drift rule for core ``cid``.

        Diagnostic companion to :meth:`drift_ok`, used by the sanitizer
        (``repro.verify``) to build structured violation reports:
        per-neighbour published times pinpoint *which* edge broke the
        bound.
        """
        return {
            "vtime": self.vtime[cid],
            "active": bool(self.active[cid]),
            "T": self.T,
            "floor": self.floor(cid),
            "births_min": self._births_min[cid],
            "neighbors": {
                j: self.published[j] for j in self._neighbors[cid]
            },
        }

    def global_drift_bound(self) -> float:
        """The theoretical bound diameter x T (paper, Section II-A)."""
        return self.topo.diameter() * self.T

    def refresh_shadows(self) -> None:
        """Recompute all shadows exactly (multi-source Dijkstra).

        In fast mode, shadows of an idle region freeze when every adjacent
        active core is drift-stalled (no advance waves to relax them); the
        engine calls this on a no-runnable rescue round to restore the exact
        fixpoint, which guarantees the globally-earliest core can run.
        """
        if self._shadows_on:
            self._full_recompute()

    # -- drift-floor cache -------------------------------------------------
    def _lower_neighbor_floors(self, cid: int, value: float) -> None:
        """A first (INF -> finite) publish can *lower* the neighbours'
        drift floors; keep their cached lower bounds below it."""
        lb = self._floor_lb
        for j in self._neighbors[cid]:
            if value < lb[j]:
                lb[j] = value

    # -- shadow machinery -------------------------------------------------
    def _notify(self, cid: int) -> None:
        if self.on_publish_increase is not None:
            self.on_publish_increase(cid)

    def _relax_self(self, cid: int) -> None:
        """Fast-mode shadow init for a newly idle core (monotone)."""
        nbrs = self._neighbors[cid]
        if not nbrs:
            return
        pub = self.published
        # Shadows are clamped at max_vtime + T: a floor at that level can
        # never stall anyone (every active vtime <= max_vtime), and the
        # clamp keeps mutual relaxation between idle cores from climbing
        # without bound when no active anchor is in sight.
        ceiling = self.max_vtime + self.T
        held = self._held_by[cid] = min(nbrs, key=pub.__getitem__)
        cand = min(pub[held] + self.T, ceiling)
        if cand > pub[cid]:
            pub[cid] = cand
            self._notify(cid)
            self._relax_up(cid)

    def _relax_up(self, cid: int) -> None:
        """Increase-only propagation of a published-time increase."""
        tel = self.telemetry
        if tel is not None:
            tel.relax_waves[cid] += 1
        pub = self.published
        active = self.active
        neighbors = self._neighbors
        held = self._held_by
        getter = pub.__getitem__
        notify = self.on_publish_increase
        T = self.T
        ceiling = self.max_vtime + T
        stack = [cid]
        while stack:
            x = stack.pop()
            # j's candidate is min over its neighbours + T, clamped at the
            # ceiling: <= min(px + T, ceiling).  A j already publishing at
            # least that cannot rise — skip the inner min entirely.
            limit = pub[x] + T
            if limit > ceiling:
                limit = ceiling
            for j in neighbors[x]:
                if active[j]:
                    continue
                pj = pub[j]
                if pj >= limit or pub[held[j]] + T <= pj:
                    continue
                w = held[j] = min(neighbors[j], key=getter)
                cand = pub[w] + T
                if cand > ceiling:
                    cand = ceiling
                if cand > pj:
                    pub[j] = cand
                    if notify is not None:
                        notify(j)
                    stack.append(j)

    def _full_recompute(self) -> None:
        """Publish the exact shadow fixpoint (:func:`exact_shadow_fixpoint`)
        and notify every core whose published time changed."""
        self.shadow_recomputes += 1
        tel = self.telemetry
        if tel is not None:
            tel.phase = "shadow_fixpoint"
            tel.counters["fabric.shadow_recomputes"] += 1
        self._dirty = False
        # A rescue recompute may *lower* fast-mode shadows back to the
        # exact fixpoint; cached floor lower bounds are no longer valid.
        if self._floor_cache_on:
            self.soa.floor_lb_np.fill(-INF)
        pub = exact_shadow_fixpoint(
            self._neighbors, self.active, self.vtime, self.T)
        published = self.published
        changed = ()
        if self.on_publish_increase is not None:
            changed = [c for c in range(self.n_cores)
                       if pub[c] != published[c]]
        published[:] = array("d", pub)
        for c in changed:
            self._notify(c)

    # -- introspection ---------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Debug snapshot of the fabric state."""
        if self._dirty and self._exact:
            self._full_recompute()
        return {
            "vtime": list(self.vtime),
            "active": list(self.active),
            "published": list(self.published),
            "births_min": list(self._births_min),
            "max_vtime": self.max_vtime,
        }
