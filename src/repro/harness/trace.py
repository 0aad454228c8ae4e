"""Execution tracing.

A :class:`Tracer` attaches to a machine before ``run()`` and records, in
virtual time:

* per-core task execution spans (which task ran when, on which core);
* drift-stall events;
* message events (kind, source, destination, send/arrival times).

Spans and messages are packed rows of doubles, one typed array per
record type, with task names and message kinds as small integer codes;
no object is kept per event.  A run's trace is one value,
:class:`PackedTrace`, on every backend: a serial machine returns its
tracer's, a sharded one the merge of its workers'.  Read as a mapping
it has the export shape (``trace["spans"]`` is a list of dicts, built
on each read), which is what ``build_chrome_trace`` reads.
:func:`trace_digest` hashes it with one numpy sort.  The tracer
subscribes to the machine's observation seam (``Machine.subscribe``)
for task start/suspend/finish, stall and service events, so it costs
nothing when not attached.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Mapping
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence)

import numpy as np

#: Doubles per packed row: (core, name code, start, end) and
#: (kind code, src, dst, send_time, arrival).
SPAN_WIDTH = 4
MSG_WIDTH = 5

#: Leads the digested bytes; a new canonical form gets a new tag.
DIGEST_VERSION = b"repro.trace_digest/2\n"


class Span(NamedTuple):
    """One task execution interval on a core."""

    core: int
    task: str
    start: float
    end: float


class MsgEvent(NamedTuple):
    """One architectural message."""

    kind: str
    src: int
    dst: int
    send_time: float
    arrival: float


def _rows(flat: array, width: int) -> Iterator[tuple]:
    return zip(*[iter(flat)] * width)


def _span_views(flat: array, names: Sequence[str]) -> List[Span]:
    return [Span(int(core), names[int(code)], start, end)
            for core, code, start, end in _rows(flat, SPAN_WIDTH)]


def _msg_views(flat: array, kinds: Sequence[str]) -> List[MsgEvent]:
    return [MsgEvent(kinds[int(code)], int(src), int(dst), send, arrival)
            for code, src, dst, send, arrival in _rows(flat, MSG_WIDTH)]


def _matrix(flat: array, width: int) -> np.ndarray:
    return np.frombuffer(flat, dtype=np.float64).reshape(-1, width)


class PackedTrace(Mapping):
    """One run's trace: packed span and message rows plus the stalls.

    ``span_rows`` holds :data:`SPAN_WIDTH` doubles per span and
    ``msg_rows`` :data:`MSG_WIDTH` per message; the code columns index
    ``names`` (task function names — task ids never enter the record)
    and ``kinds`` (message kind values).  ``stalls`` is a short list of
    ``{"core", "vtime", "floor"}`` dicts and is never digested.

    As a mapping it has the keys ``spans``, ``stalls`` and ``messages``,
    each a list of dicts built from the rows on every read.
    """

    __slots__ = ("names", "kinds", "span_rows", "msg_rows", "stalls")

    def __init__(self, names: Sequence[str], kinds: Sequence[str],
                 span_rows: array, msg_rows: array,
                 stalls: List[Dict[str, float]]) -> None:
        self.names = tuple(names)
        self.kinds = tuple(kinds)
        self.span_rows = span_rows
        self.msg_rows = msg_rows
        self.stalls = stalls

    def span_events(self) -> List[Span]:
        return _span_views(self.span_rows, self.names)

    def message_events(self) -> List[MsgEvent]:
        return _msg_views(self.msg_rows, self.kinds)

    def __getitem__(self, key: str) -> List[Dict[str, Any]]:
        if key == "spans":
            return [s._asdict() for s in self.span_events()]
        if key == "messages":
            return [m._asdict() for m in self.message_events()]
        if key == "stalls":
            return list(self.stalls)
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(("spans", "stalls", "messages"))

    def __len__(self) -> int:
        return 3


class Tracer:
    """Records task spans, stalls and messages from one machine run.

    Attach *before* running; construction subscribes the tracer to the
    machine's events, so everything that executes afterwards is
    captured.  Query the records (``spans``, ``stalls``, ``messages``),
    compute ``core_utilization()``, take the run's :class:`PackedTrace`
    with ``export()``, or draw ``render_gantt()``.

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
        self.stalls: List[Dict[str, float]] = []
        self._span_rows = array("d")
        self._msg_rows = array("d")
        self._names: Dict[str, int] = {}   # task name -> code
        self._kinds: Dict[Any, int] = {}   # MsgKind -> code
        self._open: Dict[int, tuple] = {}  # core -> (name code, start)
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
        name = getattr(task.fn, "__name__", "task")
        code = self._names.get(name)
        if code is None:
            code = self._names[name] = len(self._names)
        self._open[core.cid] = (code, self._fabric.vtime[core.cid])

    def _close_span(self, core, task) -> None:
        cid = core.cid
        entry = self._open.pop(cid, None)
        if entry is not None:
            self._span_rows.extend(
                (cid, entry[0], entry[1], self._fabric.vtime[cid]))

    def _record_stall(self, core) -> None:
        fabric = self._fabric
        if fabric.active[core.cid]:
            self.stalls.append({"core": core.cid,
                                "vtime": fabric.vtime[core.cid],
                                "floor": fabric.floor(core.cid)})

    def _record_message(self, core, msg) -> None:
        kind = msg.kind
        code = self._kinds.get(kind)
        if code is None:
            code = self._kinds[kind] = len(self._kinds)
        self._msg_rows.extend(
            (code, msg.src, msg.dst, msg.send_time, msg.arrival))

    # -- queries -----------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Closed spans, in recording order."""
        return _span_views(self._span_rows, tuple(self._names))

    @property
    def messages(self) -> List[MsgEvent]:
        """Serviced messages, in recording order."""
        return _msg_views(self._msg_rows,
                          tuple(k.value for k in self._kinds))

    def export(self) -> PackedTrace:
        """The run's trace, still-open spans flushed at the cores' clocks.

        A task that is still executing when the run ends (or when the
        engine stops at a vtime horizon) never reaches ``_finish_task``,
        so its span sits in ``_open``.  Its closing edge is synthesized
        at the core's current virtual time in a copy of the rows, so
        repeated exports and a later resumed run both stay correct.
        """
        spans = array("d", self._span_rows)
        vtime = self._fabric.vtime
        for cid, (code, start) in self._open.items():
            spans.extend((cid, code, start, max(start, vtime[cid])))
        return PackedTrace(tuple(self._names),
                           tuple(k.value for k in self._kinds), spans,
                           array("d", self._msg_rows), list(self.stalls))

    def core_utilization(self) -> Dict[int, float]:
        """Fraction of the run each core spent executing tasks.

        Spans on one core may overlap in virtual time across idle periods
        (an idle core loses its clock and may restart it in the past —
        paper, Section II), so busy time is the measure of the interval
        *union*, keeping utilization within [0, 1].
        """
        spans = self.export().span_events()
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
        spans = self.spans
        if not spans:
            return "(no spans recorded)"
        horizon = max(s.end for s in spans)
        if horizon <= 0:
            return "(empty trace)"
        if cores is None:
            cores = sorted({s.core for s in spans})
        lanes = []
        for cid in cores:
            lane = ["."] * width
            for span in spans:
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


# -- merging and the canonical form ------------------------------------------

def _recoded(flat: array, width: int, col: int, table: Sequence[str],
             codes: Dict[str, int]) -> array:
    """``flat``'s rows with code column ``col`` moved from ``table``'s
    codes to ``codes``, which gains any new label."""
    remap = np.array([codes.setdefault(label, len(codes))
                      for label in table], dtype=np.float64)
    rows = _matrix(flat, width).copy()
    rows[:, col] = remap[rows[:, col].astype(np.intp)]
    return array("d", rows.tobytes())


def merge_traces(traces: Iterable[PackedTrace]) -> PackedTrace:
    """Concatenate per-worker traces into one, onto shared code tables."""
    names: Dict[str, int] = {}
    kinds: Dict[str, int] = {}
    spans, msgs = array("d"), array("d")
    stalls: List[Dict[str, float]] = []
    for trace in traces:
        spans.extend(_recoded(trace.span_rows, SPAN_WIDTH, 1, trace.names,
                              names))
        msgs.extend(_recoded(trace.msg_rows, MSG_WIDTH, 0, trace.kinds,
                             kinds))
        stalls.extend(trace.stalls)
    return PackedTrace(tuple(names), tuple(kinds), spans, msgs, stalls)


class CanonicalTrace(NamedTuple):
    """The backend-independent form :func:`trace_digest` hashes.

    ``names`` / ``kinds`` are the labels the rows use, sorted; ``spans``
    (core, name rank, start, end) and ``messages`` (kind rank, src, dst,
    send_time, arrival) are int64 matrices in ``np.lexsort`` order, with
    every float column as its IEEE-754 bits (so -0.0 != 0.0, exactly as
    ``float.hex`` tells them apart).
    """

    names: List[str]
    kinds: List[str]
    spans: np.ndarray
    messages: np.ndarray


def _canonical_rows(flat: array, width: int, table: Sequence[str],
                    code_col: int, int_cols: Sequence[int]):
    """(sorted labels in use, rows as int64 in ``np.lexsort`` order)."""
    floats = _matrix(flat, width)
    rows = floats.view(np.int64).copy()
    for col in int_cols:
        rows[:, col] = floats[:, col]
    codes = floats[:, code_col].astype(np.intp)
    used = np.flatnonzero(np.bincount(codes, minlength=len(table)))
    labels = sorted(table[code] for code in used)
    position = {label: i for i, label in enumerate(labels)}
    rank = np.zeros(len(table), dtype=np.int64)
    rank[used] = [position[table[code]] for code in used]
    rows[:, code_col] = rank[codes]
    return labels, rows[np.lexsort(rows.T[::-1])]


def canonical_form(trace: PackedTrace) -> CanonicalTrace:
    """A trace as a function of the multiset of its span and message
    records alone: recording order, code numbering and task ids gone."""
    names, spans = _canonical_rows(trace.span_rows, SPAN_WIDTH,
                                   trace.names, 1, (0,))
    kinds, msgs = _canonical_rows(trace.msg_rows, MSG_WIDTH,
                                  trace.kinds, 0, (1, 2))
    return CanonicalTrace(names, kinds, spans, msgs)


def trace_digest(trace: PackedTrace) -> str:
    """Stable sha256 over a trace's :func:`canonical_form`.

    Two runs of the same workload are conformant iff their digests match;
    use it to compare serial vs sharded executions (or any two backends)
    without maintaining golden numbers per workload.  Stalls are not
    part of it: stall *scheduling* is a backend decision (the sharded
    coordinator replaces fine-grained stalls with round horizons).
    """
    form = canonical_form(trace)
    h = hashlib.sha256(DIGEST_VERSION)
    h.update(repr((form.names, form.kinds)).encode())
    h.update(np.array([len(form.spans), len(form.messages)],
                      dtype="<i8").tobytes())
    h.update(form.spans.astype("<i8", copy=False))
    h.update(form.messages.astype("<i8", copy=False))
    return h.hexdigest()
