"""The object-per-event trace and its sorted-tuple digest, as reference.

``repro.harness.trace`` records packed rows and digests one numpy sort
of them.  This module keeps the form it replaced: a recorder that
stores one dict per span and message (task names with their ``#tid``
suffix), ``canonical_events`` turning an export-shaped trace into
sorted tuples with ``float.hex`` times and the task ids stripped, and
the sha256 over their ``repr``s.  ``test_trace.py`` checks that the
packed canonical form, decoded, gives exactly these tuples.
"""

import hashlib
from typing import Any, Dict, Iterable, List, Tuple


class ReferenceTracer:
    """Export-shaped spans and messages, one dict per event."""

    def __init__(self, machine, trace_messages: bool = True) -> None:
        self.machine = machine
        self.spans: List[Dict[str, Any]] = []
        self.messages: List[Dict[str, Any]] = []
        self._open: Dict[int, tuple] = {}
        events = dict(task_started=self._open_span,
                      task_suspended=self._close_span,
                      task_finished=self._close_span)
        if trace_messages:
            events["serviced"] = self._record_message
        machine.subscribe(**events)

    def _open_span(self, core, task) -> None:
        name = getattr(task.fn, "__name__", "task") + f"#{task.tid}"
        self._open[core.cid] = (name, self.machine.fabric.vtime[core.cid])

    def _close_span(self, core, task) -> None:
        entry = self._open.pop(core.cid, None)
        if entry is not None:
            name, start = entry
            self.spans.append({"core": core.cid, "task": name, "start": start,
                               "end": self.machine.fabric.vtime[core.cid]})

    def _record_message(self, core, msg) -> None:
        self.messages.append({"kind": msg.kind.value, "src": msg.src,
                              "dst": msg.dst, "send_time": msg.send_time,
                              "arrival": msg.arrival})

    def export(self) -> Dict[str, List[Dict[str, Any]]]:
        vtime = self.machine.fabric.vtime
        spans = self.spans + [
            {"core": cid, "task": name, "start": start,
             "end": max(start, vtime[cid])}
            for cid, (name, start) in self._open.items()]
        return {"spans": spans, "messages": list(self.messages)}


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


def canonical_events(trace: Dict[str, Iterable[Dict[str, Any]]],
                     ) -> List[Tuple]:
    """Sorted, backend-independent span and message tuples of an
    export-shaped trace; floats as ``float.hex()``, so bit-exact."""
    events: List[Tuple] = []
    for s in trace.get("spans", ()):
        events.append(("span", s["core"], _canonical_task(s["task"]),
                       float(s["start"]).hex(), float(s["end"]).hex()))
    for m in trace.get("messages", ()):
        events.append(("msg", m["kind"], m["src"], m["dst"],
                       float(m["send_time"]).hex(),
                       float(m["arrival"]).hex()))
    events.sort()
    return events


def reference_digest(trace: Dict[str, Iterable[Dict[str, Any]]]) -> str:
    """sha256 over the ``repr`` of each canonical event, one per line."""
    h = hashlib.sha256()
    for event in canonical_events(trace):
        h.update(repr(event).encode())
        h.update(b"\n")
    return h.hexdigest()
