"""Structured telemetry registry: counters, per-core vectors, histograms.

This is the data layer of the observability subsystem (see
``docs/observability.md``).  A :class:`Telemetry` object is attached to
a machine when ``ArchConfig.telemetry`` is non-empty.  Engine events
reach it as subscriptions on the machine's observation seam
(:meth:`Telemetry.observe`); the fabric and run-time layer counters keep
a cached ``telemetry is not None`` guard.  A machine built without
telemetry pays one ``is not None`` check per engine event and one
attribute load per layer guard.

Design constraints, in order:

1. **Never perturb the simulation.**  Instruments only *read* simulator
   state and write to telemetry-private structures; golden numbers stay
   bit-identical with telemetry enabled (pinned by ``tests/test_obs.py``).
2. **Mergeable snapshots.**  ``snapshot()`` returns a plain-JSON dict and
   :func:`merge_snapshots` combines any number of them — counters and
   histogram buckets sum, per-core vectors add element-wise, gauges take
   the max — so the sharded coordinator folds per-worker telemetry
   exactly like it folds ``SimStats``.
3. **Cheap when on.**  Hot handles (``tel.actions``, ``tel.admits`` ...)
   are plain dicts/lists resolved once at construction; an instrumented
   event costs one container operation, not a registry lookup.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .profiler import SamplingProfiler

_INF = math.inf

#: Valid parts for an ``ArchConfig.telemetry`` spec.  ``counters`` is the
#: structured registry below; ``timeline`` asks the CLI/backend to keep
#: execution spans for the Chrome-trace export; ``profile`` enables the
#: sampling wall-clock profiler.
TELEMETRY_PARTS = ("counters", "timeline", "profile")

#: Snapshot schema version, bumped on incompatible layout changes.
SNAPSHOT_SCHEMA = 1

# Fixed bucket bounds.  Merging requires identical bounds on both sides,
# so these are module constants, not per-run choices.
INBOX_BOUNDS = (1, 2, 4, 8, 16, 32)
DRIFT_BOUNDS = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0)
WINDOW_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128)
ROUND_MS_BOUNDS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)


def parse_spec(spec) -> frozenset:
    """Normalize a telemetry spec to a frozenset of part names.

    Accepts ``""``/``None``/``False`` (off), ``"all"``/``"on"``/``"1"``/
    ``True`` (every part), or a comma-separated subset of
    :data:`TELEMETRY_PARTS`.  Raises ``ValueError`` on unknown parts so a
    typo fails at config time, not silently at summarize time.
    """
    if not spec:
        return frozenset()
    if spec is True or spec in ("all", "on", "1", "true"):
        return frozenset(TELEMETRY_PARTS)
    parts = frozenset(tok.strip() for tok in str(spec).split(",") if tok.strip())
    unknown = parts - frozenset(TELEMETRY_PARTS)
    if unknown:
        raise ValueError(
            f"unknown telemetry part(s) {sorted(unknown)}; "
            f"valid parts: {', '.join(TELEMETRY_PARTS)} (or 'all')")
    return parts


class Histogram:
    """Fixed-bounds histogram: bucket ``i`` counts values ``<= bounds[i]``;
    the final bucket is the overflow (``> bounds[-1]``)."""

    __slots__ = ("bounds", "counts")

    def __init__(self, bounds: Sequence[float]):
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must ascend: {bounds}")
        self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict:
        return {"bounds": list(self.bounds), "counts": list(self.counts)}


class MetricsRegistry:
    """Namespace of counters / per-core vectors / histograms / gauges."""

    def __init__(self, n_cores: int = 0):
        self.n_cores = n_cores
        self.counters: Dict[str, float] = defaultdict(int)
        # Families: counters keyed by an arbitrary hashable (e.g. an
        # action *class* — identity hashing beats string building on the
        # dispatch path); flattened to "family.key" strings at snapshot.
        self.families: Dict[str, dict] = {}
        self.per_core: Dict[str, List[int]] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, float] = {}

    def counter_family(self, name: str) -> dict:
        fam = self.families.get(name)
        if fam is None:
            fam = self.families[name] = defaultdict(int)
        return fam

    def counter_vec(self, name: str) -> List[int]:
        vec = self.per_core.get(name)
        if vec is None:
            vec = self.per_core[name] = [0] * self.n_cores
        return vec

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds)
        elif hist.bounds != tuple(bounds):
            raise ValueError(f"histogram {name!r} already registered with "
                             f"bounds {hist.bounds}, requested {tuple(bounds)}")
        return hist

    def gauge_max(self, name: str, value) -> None:
        cur = self.gauges.get(name)
        if cur is None or value > cur:
            self.gauges[name] = value

    def snapshot(self) -> dict:
        """JSON-serializable snapshot; zero-valued vectors and empty
        histograms are dropped to keep ``metrics.json`` readable (merge
        treats absent keys as zeros)."""
        counters = {k: v for k, v in self.counters.items() if v}
        for fam_name, fam in self.families.items():
            for key, v in fam.items():
                if v:
                    label = getattr(key, "__name__", None) or str(key)
                    counters[f"{fam_name}.{label}"] = v
        return {
            "schema": SNAPSHOT_SCHEMA,
            "n_cores": self.n_cores,
            "counters": counters,
            "per_core": {k: list(v) for k, v in self.per_core.items()
                         if any(v)},
            "histograms": {k: h.as_dict() for k, h in self.histograms.items()
                           if h.total},
            "gauges": dict(self.gauges),
        }


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge snapshot dicts: counters/histograms sum, per-core vectors add
    element-wise, gauges take the max.  Histogram bounds must match
    (they are module constants, so they do unless schemas diverge)."""
    merged = {"schema": SNAPSHOT_SCHEMA, "n_cores": 0, "counters": {},
              "per_core": {}, "histograms": {}, "gauges": {}}
    profiles: Dict[str, int] = {}
    profile_meta: dict = {}
    for snap in snapshots:
        if not snap:
            continue
        if snap.get("schema", SNAPSHOT_SCHEMA) != SNAPSHOT_SCHEMA:
            raise ValueError(f"cannot merge telemetry snapshot with schema "
                             f"{snap.get('schema')!r} (expected {SNAPSHOT_SCHEMA})")
        merged["n_cores"] = max(merged["n_cores"], snap.get("n_cores", 0))
        for k, v in snap.get("counters", {}).items():
            merged["counters"][k] = merged["counters"].get(k, 0) + v
        for k, vec in snap.get("per_core", {}).items():
            cur = merged["per_core"].get(k)
            if cur is None:
                merged["per_core"][k] = list(vec)
            else:
                if len(vec) > len(cur):
                    cur.extend([0] * (len(vec) - len(cur)))
                for i, v in enumerate(vec):
                    cur[i] += v
        for k, h in snap.get("histograms", {}).items():
            cur = merged["histograms"].get(k)
            if cur is None:
                merged["histograms"][k] = {"bounds": list(h["bounds"]),
                                           "counts": list(h["counts"])}
            else:
                if list(cur["bounds"]) != list(h["bounds"]):
                    raise ValueError(f"histogram {k!r} bounds differ across "
                                     f"snapshots: {cur['bounds']} vs {h['bounds']}")
                cur["counts"] = [a + b for a, b in zip(cur["counts"], h["counts"])]
        for k, v in snap.get("gauges", {}).items():
            cur = merged["gauges"].get(k)
            if cur is None or v > cur:
                merged["gauges"][k] = v
        prof = snap.get("profile")
        if prof:
            profile_meta = {k: v for k, v in prof.items() if k != "samples"}
            for k, v in prof.get("samples", {}).items():
                profiles[k] = profiles.get(k, 0) + v
    if profiles:
        profile_meta["total_samples"] = sum(profiles.values())
        merged["profile"] = dict(profile_meta, samples=profiles)
    return merged


class Telemetry:
    """Per-machine telemetry facade: a registry plus cached hot handles.

    The engine calls it through :meth:`observe`'s subscriptions; the
    fabric and runtime hold a reference and touch its plain-container
    attributes directly; everything funnels into :meth:`snapshot` for
    sinks and coordinator-side merging.
    """

    def __init__(self, spec="all", n_cores: int = 0):
        self.parts = parse_spec(spec) or frozenset(TELEMETRY_PARTS)
        self.registry = MetricsRegistry(n_cores)
        reg = self.registry
        # Current engine phase, sampled by obs.profiler.SamplingProfiler.
        self.phase = "startup"
        self.profile: Optional[dict] = None
        # Sharded workers append (round_no, start_offset_s, dur_s); the
        # coordinator lifts these into per-worker wall-clock tracks.
        self.host_rounds: List[Tuple[int, float, float]] = []
        # --- hot handles -------------------------------------------------
        self.counters = reg.counters
        self.actions = reg.counter_family("engine.actions")
        self.admits = reg.counter_vec("sync.admitted_slices")
        self.stalls = reg.counter_vec("sync.drift_stalls")
        self.relax_waves = reg.counter_vec("fabric.relax_waves")
        self.inbox_hist = reg.histogram("engine.inbox_depth", INBOX_BOUNDS)
        self.drift_hist = reg.histogram("sync.drift_over_T", DRIFT_BOUNDS)

    def describe(self) -> str:
        parts = ",".join(p for p in TELEMETRY_PARTS if p in self.parts)
        return f"on ({parts})"

    def start_profiler(self):
        """A started :class:`~repro.obs.profiler.SamplingProfiler` when
        the ``profile`` part is on (the caller stops it), else None."""
        if "profile" not in self.parts:
            return None
        return SamplingProfiler(self).start()

    # --- engine notes ----------------------------------------------------
    # Subscribed to the machine's observation seam by ``observe``.  Drift
    # is computed from raw neighbour/birth state rather than
    # ``fabric.floor()`` because the latter may trigger an exact-mode
    # shadow recompute — observation must never change *when* fabric
    # state mutates.

    def observe(self, machine) -> None:
        """Subscribe the engine-level notes to ``machine.observers``."""
        self._fabric = machine.fabric
        self._cores = machine.cores
        events = dict(
            dispatched=self._note_action, emitted=self._note_inbox,
            injected=self._note_inbox, stalled=self._note_stall,
            slice_ended=self._note_slice, rescue=self._note_rescue)
        if "profile" in self.parts:
            # Only the sampling profiler reads ``phase``: the ``service``
            # phase spans exactly a message handler.
            events.update(serviced=self._note_serviced,
                          handled=self._note_handled)
        machine.subscribe(**events)

    def _note_serviced(self, core, msg) -> None:
        self.phase = "service"

    def _note_handled(self, core, msg) -> None:
        self.phase = "execute"

    def _note_action(self, core, action) -> None:
        self.phase = "execute"
        self.actions[type(action)] += 1

    def _note_inbox(self, msg) -> None:
        inbox = self._cores[msg.dst].inbox
        if inbox:  # empty only for a message shipped to another shard
            self.inbox_hist.observe(len(inbox))

    def _note_rescue(self) -> None:
        self.phase = "rescue"
        self.counters["engine.rescue_rounds"] += 1

    def _note_drift(self, cid: int) -> None:
        fabric = self._fabric
        if not fabric.active[cid]:
            return
        nbrs = fabric._neighbors[cid]
        floor = min(map(fabric.published.__getitem__, nbrs)) if nbrs else _INF
        births = fabric._births_min[cid]
        if births < floor:
            floor = births
        if floor != _INF:
            self.drift_hist.observe((fabric.vtime[cid] - floor) / fabric.T)

    def _note_slice(self, core, progressed: bool) -> None:
        self.phase = "execute"
        # "Admitted" = the slice executed at least one unit.
        if progressed:
            self.admits[core.cid] += 1
            self._note_drift(core.cid)

    def _note_stall(self, core) -> None:
        self.stalls[core.cid] += 1
        self._note_drift(core.cid)

    def snapshot(self) -> dict:
        snap = self.registry.snapshot()
        snap["spec"] = ",".join(p for p in TELEMETRY_PARTS if p in self.parts)
        if self.profile is not None:
            snap["profile"] = self.profile
        if self.host_rounds:
            snap["host_rounds"] = [list(r) for r in self.host_rounds]
        return snap
