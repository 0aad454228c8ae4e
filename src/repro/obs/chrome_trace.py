"""Chrome/Perfetto ``trace_event`` export for execution timelines.

Builds the JSON object format described in the Trace Event Format spec
(the one ``chrome://tracing`` and https://ui.perfetto.dev load directly)
from the simulator's own timeline sources:

* a run's trace (``harness.trace.PackedTrace``, e.g. ``Tracer.export()``
  or ``backend.trace``) — per-core task spans, drift-stall instants and
  message records, all in **virtual time**;
* the sharded backend's per-worker host-round records and the
  coordinator's escalation events, in **wall-clock time**.

The two time bases cannot share an axis, so they live on separate
"processes" (Perfetto track groups): pid 1 carries one track per
simulated core where 1 virtual cycle is rendered as 1 µs, pid 2 carries
coordinator escalation instants, and pids 10+sid carry one wall-clock
track per shard worker.  The pid-1 metadata name says so explicitly —
read virtual-track durations as cycles, not microseconds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

#: Process ids grouping tracks by time base.
PID_VIRTUAL = 1          # simulated cores, virtual time (1 cycle = 1 us)
PID_COORDINATOR = 2      # sharded coordinator, wall clock
PID_WORKER_BASE = 10     # shard worker sid -> pid 10 + sid, wall clock

_VALID_PHASES = frozenset("BEXiIMsftPnObe")


def build_chrome_trace(trace: Optional[dict] = None,
                       host_rounds: Optional[Dict[int, list]] = None,
                       coord_events: Optional[Iterable[dict]] = None,
                       include_messages: bool = False) -> dict:
    """Assemble a Chrome ``trace_event`` JSON document.

    ``trace`` maps ``spans``/``stalls``/``messages`` to lists of dicts
    (a ``PackedTrace`` reads that way); ``host_rounds`` maps shard id
    to ``(round_no, start_s, dur_s)`` tuples; ``coord_events`` is an
    iterable of ``{"name": ..., "ts_s": ..., ...}`` coordinator
    instants (waivers, reliefs).  Message instants flood dense traces,
    so they are opt-in.
    """
    events: List[dict] = []

    if trace is not None:
        events.append(_meta(PID_VIRTUAL, "process_name",
                            "simulated cores (virtual time, 1 cycle = 1us)"))
        cores = set()
        for span in trace.get("spans", ()):
            core = span["core"]
            cores.add(core)
            events.append({
                "ph": "X", "pid": PID_VIRTUAL, "tid": core,
                "name": span.get("task", "task"), "cat": "task",
                "ts": span["start"],
                "dur": max(span["end"] - span["start"], 0.0),
            })
        for stall in trace.get("stalls", ()):
            core = stall["core"]
            cores.add(core)
            events.append({
                "ph": "i", "pid": PID_VIRTUAL, "tid": core, "s": "t",
                "name": "drift-stall", "cat": "sync",
                "ts": stall["vtime"],
                "args": {"floor": stall.get("floor")},
            })
        if include_messages:
            for msg in trace.get("messages", ()):
                core = msg["dst"]
                cores.add(core)
                events.append({
                    "ph": "i", "pid": PID_VIRTUAL, "tid": core, "s": "t",
                    "name": msg.get("kind", "msg"), "cat": "message",
                    "ts": msg["arrival"],
                    "args": {"src": msg.get("src"),
                             "send_time": msg.get("send_time")},
                })
        for core in sorted(cores):
            events.append(_meta(PID_VIRTUAL, "thread_name", f"core {core}",
                                tid=core))

    if coord_events:
        events.append(_meta(PID_COORDINATOR, "process_name",
                            "shard coordinator (wall clock)"))
        events.append(_meta(PID_COORDINATOR, "thread_name", "escalation",
                            tid=0))
        for ev in coord_events:
            events.append({
                "ph": "i", "pid": PID_COORDINATOR, "tid": 0, "s": "p",
                "name": ev["name"], "cat": "protocol",
                "ts": ev["ts_s"] * 1e6,
                "args": {k: v for k, v in ev.items()
                         if k not in ("name", "ts_s")},
            })

    if host_rounds:
        for sid in sorted(host_rounds):
            pid = PID_WORKER_BASE + sid
            events.append(_meta(pid, "process_name",
                                f"shard worker {sid} (wall clock)"))
            events.append(_meta(pid, "thread_name", "rounds", tid=0))
            for round_no, start_s, dur_s in host_rounds[sid]:
                events.append({
                    "ph": "X", "pid": pid, "tid": 0,
                    "name": f"round {round_no}", "cat": "host",
                    "ts": start_s * 1e6, "dur": dur_s * 1e6,
                })

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _meta(pid: int, name: str, value: str, tid: int = 0) -> dict:
    return {"ph": "M", "pid": pid, "tid": tid, "name": name,
            "args": {"name": value}, "ts": 0}


def validate_chrome_trace(doc) -> None:
    """Raise ``ValueError`` unless ``doc`` is structurally valid
    trace_event JSON (object format).  Used by tests and the CLI sink;
    intentionally strict about the fields Perfetto's importer needs."""
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document must have a 'traceEvents' list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            raise ValueError(f"traceEvents[{i}] has invalid phase {ph!r}")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                raise ValueError(f"traceEvents[{i}].{field} must be an int")
        if not isinstance(ev.get("name"), str):
            raise ValueError(f"traceEvents[{i}].name must be a string")
        if not isinstance(ev.get("ts"), (int, float)):
            raise ValueError(f"traceEvents[{i}].ts must be a number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"traceEvents[{i}] complete event needs dur >= 0")
