"""Distributed-memory architecture type without hardware coherence.

Each core has a local L2 (10-cycle latency); shared data live in cells
managed by the run-time system (paper, Sections IV and V).  Remote cell
content is fetched with DATA_REQUEST / DATA_RESPONSE messages over the NoC;
data access is *exclusive* — the cell moves to the requesting core whether
the access is a read or a write — which is what makes data-contended
benchmarks collapse on this architecture type (Section VI).
"""

from __future__ import annotations

from typing import Optional

from .base import MemoryModel
from .cells import Cell, Link
from ..core.messages import MsgKind

#: Paper parameters.
DEFAULT_L2_LATENCY = 10.0
DEFAULT_L1_LATENCY = 1.0


class DistributedMemoryModel(MemoryModel):
    """Run-time managed cells over per-core local memories."""

    def __init__(
        self,
        l2_latency: float = DEFAULT_L2_LATENCY,
        l1_latency: float = DEFAULT_L1_LATENCY,
    ) -> None:
        if l2_latency < 0 or l1_latency < 0:
            raise ValueError("latencies must be non-negative")
        self.l2_latency = l2_latency
        self.l1_latency = l1_latency
        self.cells_created = 0
        self.remote_fetches = 0
        self.forwards = 0

    def attach(self, machine) -> None:
        super().attach(machine)
        machine.register_handler(MsgKind.DATA_REQUEST, self._on_data_request)
        machine.register_handler(MsgKind.DATA_RESPONSE, self._on_data_response)

    # -- private-data accesses -----------------------------------------------
    def access(self, core, action) -> float:
        """Private/local data: L1 hits per annotation, misses to local L2."""
        n = action.reads + action.writes
        if n == 0:
            return 0.0
        l1_hit = self.l1_latency * core.speed_factor
        hits = n * action.l1_hit_fraction
        misses = n - hits
        return hits * l1_hit + misses * self.l2_latency

    # -- cells -------------------------------------------------------------
    def new_cell(self, data=None, size: float = 64.0, home: int = 0) -> Cell:
        """Create a cell homed (initially owned) by core ``home``."""
        if not 0 <= home < self.machine.n_cores:
            raise ValueError(f"home core {home} out of range")
        self.cells_created += 1
        return Cell(data=data, size=size, owner=home)

    def cell_access(self, core, task, action) -> Optional[float]:
        cell = action.cell.deref() if isinstance(action.cell, Link) else action.cell
        if cell.owner == core.cid:
            # Local access: run-time locks the cell for the (atomic) access.
            return self.l2_latency
        # Remote: the run-time system fetches the cell; the task blocks.
        self.remote_fetches += 1
        suspended = self.machine.suspend_current(core, "cell")
        self.machine.send_with_overhead(
            MsgKind.DATA_REQUEST,
            core,
            cell.owner,
            payload=(suspended, cell),
        )
        return None

    # -- message handlers -----------------------------------------------------
    def _on_data_request(self, core, msg) -> None:
        task, cell = msg.payload
        if cell.owner != core.cid:
            # The cell moved since the request was sent; chase the owner.
            self.forwards += 1
            self.machine.send_service_message(
                MsgKind.DATA_REQUEST, core, cell.owner, payload=msg.payload
            )
            return
        if cell.locked_by is not None:
            cell.pending.append((task, msg.src))
            return
        self._transfer(core, cell, task, msg.src,
                       at_time=self.machine.service_now(core))

    def _transfer(self, core, cell: Cell, task, requester: int,
                  at_time: float) -> None:
        """Hand the cell over to ``requester`` and ship its content.

        The response is dated with the request's service time plus the
        local L2 read latency (paper: replies carry the request time
        augmented with a local processing time).
        """
        cell.owner = requester
        cell.moves += 1
        self.machine.send_message_at(
            MsgKind.DATA_RESPONSE,
            core,
            requester,
            at_time + self.l2_latency,
            payload=(task, cell),
            size=max(cell.size, 16.0),
        )

    def _on_data_response(self, core, msg) -> None:
        task, cell = msg.payload
        # Store the received data in the local L2, then resume the task.
        at_time = self.machine.service_now(core) + self.l2_latency
        self.machine.wake_task(task, cell, at_time, ctx_switch=True)

    def release_cell(self, core, cell: Cell) -> None:
        """Explicitly unlock a cell and service pending requests."""
        cell.locked_by = None
        at_time = self.machine.now(core)
        while cell.pending and cell.owner == core.cid:
            task, requester = cell.pending.popleft()
            self._transfer(core, cell, task, requester, at_time)
