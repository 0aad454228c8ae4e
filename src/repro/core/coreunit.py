"""The simulated core: task queue, inbox, suspended-task bookkeeping.

In the paper's implementation, the code running on a given core is simulated
in a dedicated userland thread with non-preemptive scheduling; here each
core multiplexes a current task (a generator) with a queue of ready tasks
and an inbox of architectural messages, all driven cooperatively by the
engine.

The inbox is a FIFO deque (host delivery order) with an optional
arrival-ordered heap maintained incrementally alongside it.  Policies that
consume messages in arrival order (the conservative referee) or that track
per-core event horizons (quantum, bounded slack) enable the heap via
``track_arrivals``; earliest-message queries then cost O(log n) instead of
an O(n) scan.  The two structures stay coherent through tombstones: a
message popped from either side is marked ``consumed`` and lazily purged
from the other.  The deque's front is never a tombstone, so its truthiness
(``has_work``) stays exact.

A core owns none of these containers until it needs one: each slot
starts as :data:`ABSENT`, the shared empty tuple, and the first push
creates the real container (the first task, the first message).  Most
cores of a large machine never work, so memory follows the cores that
do.  ``ABSENT`` is falsy, has length 0 and iterates empty like the
container it stands for, so readers need no branch and a snapshot
captures it as the same empty list; only pushes test for it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Deque, List, Optional, Tuple

from .messages import Message
from .soa import CoreStateArrays
from .task import Task
from ..timing.annotator import BlockAnnotator

_INF = float("inf")

#: Placeholder of a per-core container not created yet (see above).
ABSENT: tuple = ()


def _plane_scalar(column: str, doc: str) -> property:
    """A CoreUnit attribute backed by a :class:`CoreStateArrays` column.

    The engine's hot loops index the columns directly (cached array
    aliases); these properties are the *thin-view* access path for cold
    code and existing call sites — both alias the same memory, so they
    can never disagree.
    """

    def fget(self):
        return getattr(self._soa, column)[self.cid]

    def fset(self, value):
        getattr(self._soa, column)[self.cid] = value

    return property(fget, fset, doc=doc)


class CoreUnit:
    """Run-time state of one simulated core.

    The hot per-core scalars (service clock, busy cycles, scheduler
    flags, last processed arrival) live in the machine-wide
    :class:`~repro.core.soa.CoreStateArrays` plane; this object is a
    thin view over its ``cid`` slot plus the genuinely per-core
    containers (task queue, inbox, mailbox) the cold paths use.  Those
    containers and the block annotator are created at the core's first
    push and first task start; until then they are :data:`ABSENT` and
    ``None``.
    """

    __slots__ = (
        "cid", "speed_factor", "annotator", "_soa",
        "queue", "inbox", "current", "reserved_slots",
        "locks_held", "user_mailbox", "recv_waiters",
        "lax_ref", "lax_next_check",
        "track_arrivals", "_arrival_heap",
    )

    last_processed_arrival = _plane_scalar(
        "last_arrival", "Arrival timestamp of the last serviced message.")
    busy_cycles = _plane_scalar(
        "busy_cycles", "Accumulated busy cycles on this core.")
    #: Virtual timeline of the core's run-time/NI message servicing.
    #: Requests are serviced at max(arrival, service_clock): the
    #: run-time handles incoming messages independently of the task
    #: clock, and replies are dated with the request time plus a local
    #: processing time (paper, Section II-A).
    service_clock = _plane_scalar(
        "service_clock", "Run-time/NI message service clock.")
    in_ready = _plane_scalar(
        "in_ready", "1 while queued in the engine's ready ring.")
    stalled = _plane_scalar(
        "stalled", "1 while drift-stalled.")

    def __init__(
        self,
        cid: int,
        speed_factor: float = 1.0,
        soa: Optional[CoreStateArrays] = None,
    ) -> None:
        if speed_factor <= 0:
            raise ValueError("speed factor must be positive")
        self.cid = cid
        self.speed_factor = speed_factor
        #: Built by the engine at the core's first task start.
        self.annotator: Optional[BlockAnnotator] = None
        # Standalone construction (unit tests) gets a private plane.
        self._soa = soa if soa is not None \
            else CoreStateArrays(cid + 1, [()] * (cid + 1))
        self.queue: Deque[Task] = ABSENT
        self.inbox: Deque[Message] = ABSENT
        self.current: Optional[Task] = None
        self.reserved_slots = 0
        self.locks_held = 0
        self.user_mailbox: Deque[Message] = ABSENT
        self.recv_waiters: List[Tuple[Task, object]] = ABSENT
        # LaxP2P bookkeeping (used only under that policy).
        self.lax_ref: Optional[int] = None
        self.lax_next_check = 0.0
        #: Maintain the arrival-ordered heap alongside the FIFO deque.
        #: Set by the engine from the sync policy's needs; policies that
        #: only ever pop host-order (spatial, unbounded) skip the heap
        #: entirely.
        self.track_arrivals = False
        self._arrival_heap: List[Tuple[float, int, Message]] = ABSENT

    # -- first pushes --------------------------------------------------------
    def enqueue(self, task: Task) -> None:
        """Append a ready task to the queue (created by the first one)."""
        queue = self.queue
        if queue is ABSENT:
            queue = self.queue = deque()
        queue.append(task)

    def park_user_message(self, msg: Message) -> None:
        """Keep a USER message no receiver waits for (mailbox created by
        the first one)."""
        mailbox = self.user_mailbox
        if mailbox is ABSENT:
            mailbox = self.user_mailbox = deque()
        mailbox.append(msg)

    def add_recv_waiter(self, task: Task, tag: object) -> None:
        """Park a task blocked in ``recv`` (list created by the first)."""
        waiters = self.recv_waiters
        if waiters is ABSENT:
            waiters = self.recv_waiters = []
        waiters.append((task, tag))

    # -- inbox -----------------------------------------------------------
    def inbox_push(self, msg: Message) -> None:
        """Deliver an architectural message to this core."""
        inbox = self.inbox
        if inbox is ABSENT:
            inbox = self.inbox = deque()
        if self.track_arrivals:
            heap = self._arrival_heap
            if heap is ABSENT:
                heap = self._arrival_heap = []
            elif heap and not inbox:
                # All live messages were drained host-order; drop the
                # tombstones instead of letting them accumulate.
                heap.clear()
            heappush(heap, (msg.arrival, msg.seq, msg))
        inbox.append(msg)

    def inbox_pop_fifo(self) -> Message:
        """Next message in host delivery order."""
        inbox = self.inbox
        msg = inbox.popleft()  # the front is never a tombstone
        msg.consumed = True
        while inbox and inbox[0].consumed:
            inbox.popleft()
        return msg

    def inbox_pop_earliest(self) -> Message:
        """Next message in arrival-timestamp order (FIFO among ties).

        Only arrival-ordered policies call this, and the engine turns
        ``track_arrivals`` on for exactly those, so the heap is live.
        """
        inbox = self.inbox
        heap = self._arrival_heap
        while True:
            _, _, msg = heappop(heap)
            if not msg.consumed:
                break
        msg.consumed = True
        if inbox and inbox[0] is msg:
            inbox.popleft()
        while inbox and inbox[0].consumed:
            inbox.popleft()
        return msg

    def inbox_peek_earliest(self) -> Optional[Message]:
        """The earliest-arrival pending message (None when empty)."""
        if self.track_arrivals:
            heap = self._arrival_heap
            while heap:
                msg = heap[0][2]
                if msg.consumed:
                    heappop(heap)
                    continue
                return msg
            return None
        best = None
        best_t = _INF
        for msg in self.inbox:
            if msg.arrival < best_t:
                best = msg
                best_t = msg.arrival
        return best

    def has_work(self) -> bool:
        """True when the core has something to execute right now."""
        return self.current is not None or bool(self.queue) or bool(self.inbox)

    def occupancy(self) -> int:
        """Task-queue occupancy as advertised to neighbours (incl. holds)."""
        return len(self.queue) + self.reserved_slots + (1 if self.current else 0)

    def next_event_time(self) -> float:
        """Earliest pending inbox message arrival (INF when none)."""
        if not self.inbox:
            return _INF
        msg = self.inbox_peek_earliest()
        return _INF if msg is None else msg.arrival

    def next_start_time(self) -> float:
        """Earliest start/resume time among queued tasks (INF when none).

        Only meaningful when the core is free: scheduling is
        non-preemptive, so a busy core cannot promise queued work.
        """
        earliest = _INF
        for task in self.queue:
            t = task.resume_time if task.gen is not None else task.ready_time
            if t < earliest:
                earliest = t
        return earliest

    def scaled(self, cycles: float) -> float:
        """Apply this core's speed factor to a raw cycle count."""
        return cycles * self.speed_factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Core{self.cid}(q={len(self.queue)}, inbox={len(self.inbox)}, "
            f"current={self.current is not None})"
        )
