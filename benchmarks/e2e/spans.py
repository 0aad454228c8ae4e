"""In-memory spans around the calls the benchmark makes into the program.

A span is (name, layer, start, end, parent, op id, thread).  Spans are
recorded from the benchmark's own files only; a layer's *self time* is
its spans' duration minus the part their child spans cover.  With the
recorder disabled (every end-to-end run) ``span()`` hands back one
shared no-op context manager, so the timed passes pay nothing for it.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: Layer name of the op spans: their uncovered time is the benchmark's
#: own cost (argument shuffling, digests, JSON), not the program's.
BENCH_LAYER = "bench"

_NOOP = contextlib.nullcontext()


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "tid")

    def __init__(self, name: str, layer: str, parent: Optional["Span"],
                 op: Optional[int], tid: int) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.tid = tid
        self.start = 0.0
        self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager closing one span (kept tiny: it is on the timed
    path of the traced pass)."""

    __slots__ = ("rec", "span")

    def __init__(self, rec: "SpanRecorder", span: Span) -> None:
        self.rec = rec
        self.span = span

    def __enter__(self) -> Span:
        self.rec._stack().append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.rec._stack().pop()
        self.rec.spans.append(self.span)   # list.append is atomic


class SpanRecorder:
    """Collects spans; one per run.  Thread-aware: each thread has its
    own open-span stack and a small integer ``tid``."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._local = threading.local()
        self._tids: Dict[int, int] = {}
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._tids.setdefault(ident, len(self._tids))

    def span(self, name: str, layer: str, op: Optional[int] = None):
        """``with rec.span("arch.build_machine", "arch"): ...``; a child
        inherits its parent's op id."""
        if not self.enabled:
            return _NOOP
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        return _Open(self, Span(name, layer, parent, op, self._tid()))

    # -- analysis ----------------------------------------------------------
    def check_nesting(self) -> None:
        """Raise unless every child lies inside its parent and no two
        siblings on one thread overlap."""
        siblings: Dict[tuple, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.end < s.start:
                raise ValueError(f"span {s.name} ends before it starts")
            p = s.parent
            if p is not None and not (p.start <= s.start and s.end <= p.end):
                raise ValueError(
                    f"span {s.name} is not nested inside {p.name}")
            siblings[(s.tid, id(p))].append(s)
        for group in siblings.values():
            group.sort(key=lambda s: s.start)
            for a, b in zip(group, group[1:]):
                if b.start < a.end:
                    raise ValueError(
                        f"sibling spans {a.name} and {b.name} overlap")

    def self_seconds(self) -> Dict[str, float]:
        """Layer -> summed self time (span minus its direct children)."""
        covered: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[id(s.parent)] += s.dur
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += s.dur - covered[id(s)]
        return dict(out)

    def total_seconds(self, name: str) -> float:
        return sum(s.dur for s in self.spans if s.name == name)

    def to_chrome(self, process_name: str) -> dict:
        """Chrome ``trace_event`` JSON (object format), wall clock in us
        from the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                   "args": {"name": process_name}, "ts": 0}]
        for tid in sorted(set(s.tid for s in self.spans)):
            events.append({"ph": "M", "pid": 1, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": f"client {tid}"}, "ts": 0})
        for s in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            events.append({
                "ph": "X", "pid": 1, "tid": s.tid, "name": s.name,
                "cat": s.layer, "ts": (s.start - t0) * 1e6,
                "dur": s.dur * 1e6,
                "args": {"op": s.op,
                         "parent": s.parent.name if s.parent else None},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
