"""Execution tracing.

A :class:`Tracer` attaches to a machine before ``run()`` and records, in
virtual time:

* per-core task execution spans (which task ran when, on which core);
* drift-stall events;
* message events (kind, source, destination, send/arrival times).

Traces render as text Gantt charts (one lane per core) and export as lists
of dicts for external analysis.  The tracer subscribes to the machine's
observation seam (``Machine.subscribe``) for task start/suspend/finish,
stall and service events, so it costs nothing when not attached.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.messages import Message


@dataclass
class Span:
    """One task execution interval on a core."""

    core: int
    task: str
    start: float
    end: float

    def as_dict(self) -> Dict[str, Any]:
        return {"core": self.core, "task": self.task,
                "start": self.start, "end": self.end}


@dataclass
class MsgEvent:
    """One architectural message."""

    kind: str
    src: int
    dst: int
    send_time: float
    arrival: float

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "src": self.src, "dst": self.dst,
                "send_time": self.send_time, "arrival": self.arrival}


class Tracer:
    """Records task spans, stalls and messages from one machine run.

    Attach *before* running; construction subscribes the tracer to the
    machine's events, so everything that executes afterwards is
    captured.  Query the raw records (``spans``, ``stalls``,
    ``messages``), compute ``core_utilization()``, dump ``export()`` for
    external tooling, or draw ``render_gantt()``.

    Example::

        from repro.arch import build_machine, shared_mesh
        from repro.harness.trace import Tracer

        machine = build_machine(shared_mesh(16))
        tracer = Tracer(machine)
        machine.run(my_root_fn)
        print(len(tracer.spans), "task spans")
        print(tracer.render_gantt(width=60))
    """

    def __init__(self, machine, trace_messages: bool = True) -> None:
        self.machine = machine
        self.spans: List[Span] = []
        self.stalls: List[Dict[str, float]] = []
        self.messages: List[MsgEvent] = []
        self._open: Dict[int, tuple] = {}  # core -> (task name, start)
        self._fabric = machine.fabric
        events = dict(task_started=self._open_span,
                      task_suspended=self._close_span,
                      task_finished=self._close_span,
                      stalled=self._record_stall)
        if trace_messages:
            events["serviced"] = self._record_message
        machine.subscribe(**events)

    # -- observation-seam callbacks ------------------------------------------
    def _open_span(self, core, task) -> None:
        name = getattr(task.fn, "__name__", "task") + f"#{task.tid}"
        self._open[core.cid] = (name, self._fabric.vtime[core.cid])

    def _close_span(self, core, task) -> None:
        entry = self._open.pop(core.cid, None)
        if entry is not None:
            name, start = entry
            end = self._fabric.vtime[core.cid]
            self.spans.append(Span(core.cid, name, start, end))

    def _record_stall(self, core) -> None:
        fabric = self._fabric
        if fabric.active[core.cid]:
            self.stalls.append({"core": core.cid,
                                "vtime": fabric.vtime[core.cid],
                                "floor": fabric.floor(core.cid)})

    def _record_message(self, core, msg: Message) -> None:
        self.messages.append(MsgEvent(msg.kind.value, msg.src, msg.dst,
                                      msg.send_time, msg.arrival))

    def _effective_spans(self) -> List[Span]:
        """Closed spans plus still-open ones flushed at the cores' clocks.

        A task that is still executing when the run ends (or when the
        engine stops at a vtime horizon) never reaches ``_finish_task``,
        so its span sits in ``_open``.  Synthesize a closing edge at the
        core's current virtual time without mutating tracer state, so
        repeated queries and a later resumed run both stay correct.
        """
        if not self._open:
            return self.spans
        vtime = self.machine.fabric.vtime
        spans = list(self.spans)
        for cid, (name, start) in self._open.items():
            spans.append(Span(cid, name, start, max(start, vtime[cid])))
        return spans

    # -- queries -----------------------------------------------------------
    def core_utilization(self) -> Dict[int, float]:
        """Fraction of the run each core spent executing tasks.

        Spans on one core may overlap in virtual time across idle periods
        (an idle core loses its clock and may restart it in the past —
        paper, Section II), so busy time is the measure of the interval
        *union*, keeping utilization within [0, 1].
        """
        spans = self._effective_spans()
        horizon = max((s.end for s in spans), default=0.0)
        if horizon <= 0:
            return {c.cid: 0.0 for c in self.machine.cores}
        by_core: Dict[int, List[tuple]] = {
            c.cid: [] for c in self.machine.cores
        }
        for span in spans:
            by_core[span.core].append((span.start, span.end))
        util: Dict[int, float] = {}
        for cid, intervals in by_core.items():
            intervals.sort()
            busy = 0.0
            cursor = -1.0
            for start, end in intervals:
                start = max(start, cursor)
                if end > start:
                    busy += end - start
                    cursor = end
            util[cid] = min(1.0, busy / horizon)
        return util

    def export(self) -> Dict[str, List[Dict[str, Any]]]:
        """Structured trace for external tooling (open spans included)."""
        return {
            "spans": [s.as_dict() for s in self._effective_spans()],
            "stalls": list(self.stalls),
            "messages": [m.as_dict() for m in self.messages],
        }

    def to_chrome(self, **kwargs) -> Dict[str, Any]:
        """Export as a Chrome ``trace_event`` document (Perfetto-loadable).

        Convenience wrapper over
        :func:`repro.obs.chrome_trace.build_chrome_trace`; keyword
        arguments (``host_rounds``, ``coord_events``,
        ``include_messages``) pass straight through.
        """
        from ..obs.chrome_trace import build_chrome_trace

        return build_chrome_trace(trace=self.export(), **kwargs)

    # -- rendering ---------------------------------------------------------
    def render_gantt(self, width: int = 72,
                     cores: Optional[List[int]] = None) -> str:
        """Text Gantt chart: one lane per core, '#' = executing a task,
        '.' = idle/waiting."""
        if not self.spans:
            return "(no spans recorded)"
        horizon = max(s.end for s in self.spans)
        if horizon <= 0:
            return "(empty trace)"
        if cores is None:
            cores = sorted({s.core for s in self.spans})
        lanes = []
        for cid in cores:
            lane = ["."] * width
            for span in self.spans:
                if span.core != cid:
                    continue
                lo = int(span.start / horizon * (width - 1))
                hi = max(lo, int(span.end / horizon * (width - 1)))
                for i in range(lo, hi + 1):
                    lane[i] = "#"
            lanes.append((cid, "".join(lane)))
        label_width = max(len(f"core {cid}") for cid, _ in lanes)
        lines = [f"virtual time 0 .. {horizon:.0f} cycles"]
        for cid, lane in lanes:
            lines.append(f"{f'core {cid}':>{label_width}} |{lane}|")
        return "\n".join(lines)


# -- canonical form ---------------------------------------------------------

def _canonical_task(name: str) -> str:
    """Strip the per-process task id suffix (``fn#17`` -> ``fn``).

    Task ids are allocated in scheduling order, which differs between the
    serial engine and sharded workers (each worker numbers its own tasks),
    so they must not enter the canonical form.
    """
    base, sep, tid = name.rpartition("#")
    if sep and tid.isdigit():
        return base
    return name


def canonical_events(trace: Dict[str, List[Dict[str, Any]]],
                     include: Iterable[str] = ("spans", "messages"),
                     ) -> List[Tuple]:
    """Deterministic, backend-independent event tuples for a trace.

    Takes an ``export()`` dict (or the concatenation of several — the
    sharded backend ships one per worker) and returns sorted tuples.
    Floats are rendered with ``float.hex()`` so the comparison is
    bit-exact, never formatting-dependent.  ``stalls`` are excluded by
    default: stall *scheduling* is a backend decision (the sharded
    coordinator replaces fine-grained stalls with round horizons), so
    only spans and messages are part of the conformance contract.
    """
    events: List[Tuple] = []
    if "spans" in include:
        for s in trace.get("spans", ()):
            events.append(("span", s["core"], _canonical_task(s["task"]),
                           float(s["start"]).hex(), float(s["end"]).hex()))
    if "messages" in include:
        for m in trace.get("messages", ()):
            events.append(("msg", m["kind"], m["src"], m["dst"],
                           float(m["send_time"]).hex(),
                           float(m["arrival"]).hex()))
    if "stalls" in include:
        for st in trace.get("stalls", ()):
            events.append(("stall", st["core"],
                           float(st["vtime"]).hex(),
                           float(st["floor"]).hex()))
    events.sort()
    return events


def merge_traces(traces: Iterable[Dict[str, List[Dict[str, Any]]]],
                 ) -> Dict[str, List[Dict[str, Any]]]:
    """Concatenate per-worker ``export()`` dicts into one trace dict."""
    merged: Dict[str, List[Dict[str, Any]]] = {
        "spans": [], "stalls": [], "messages": [],
    }
    for trace in traces:
        for key in merged:
            merged[key].extend(trace.get(key, ()))
    return merged


def trace_digest(trace: Dict[str, List[Dict[str, Any]]],
                 include: Iterable[str] = ("spans", "messages")) -> str:
    """Stable sha256 over the canonical event tuples of a trace.

    Two runs of the same workload are conformant iff their digests match;
    use it to compare serial vs sharded executions (or any two backends)
    without maintaining golden numbers per workload.
    """
    h = hashlib.sha256()
    for event in canonical_events(trace, include=include):
        h.update(repr(event).encode())
        h.update(b"\n")
    return h.hexdigest()
