"""Shared-memory architecture type (paper, Section V).

All cores, besides their private L1, access the shared memory banks with a
common low latency (10 cycles).  The model is optimistic — interconnect
delays and (by default) cache-coherence effects are ignored — because its
purpose is to study inherent program scalability.  For validation against
the cycle-level referee, a :class:`~repro.memory.coherence.CoherenceModel`
can be attached so coherence timings are charged.

The L1 is the paper's pessimistic model: 1-cycle hits whose fraction comes
from block-local annotations (data never survive function boundaries), with
the L1 speed proportional to the core speed on polymorphic architectures —
the detail responsible for the CL/VT offset in Figure 6.
"""

from __future__ import annotations

from typing import Optional

from .base import MemoryModel
from .cells import Cell, Link
from .coherence import CoherenceModel

#: Paper parameters.
DEFAULT_BANK_LATENCY = 10.0
DEFAULT_L1_LATENCY = 1.0


class SharedMemoryModel(MemoryModel):
    """Uniform-latency shared banks + pessimistic private L1s."""

    def __init__(
        self,
        bank_latency: float = DEFAULT_BANK_LATENCY,
        l1_latency: float = DEFAULT_L1_LATENCY,
        coherence: Optional[CoherenceModel] = None,
        scale_l1_with_core: bool = True,
        atomic_op_cycles: float = 2.0,
    ) -> None:
        if bank_latency < 0 or l1_latency < 0 or atomic_op_cycles < 0:
            raise ValueError("latencies must be non-negative")
        self.bank_latency = bank_latency
        self.l1_latency = l1_latency
        self.coherence = coherence
        self.scale_l1_with_core = scale_l1_with_core
        self.atomic_op_cycles = atomic_op_cycles

    def access(self, core, action) -> float:
        n = action.reads + action.writes
        if n == 0:
            return 0.0
        l1_hit = self.l1_latency
        if self.scale_l1_with_core:
            l1_hit = l1_hit * core.speed_factor
        hits = n * action.l1_hit_fraction
        misses = n - hits
        cost = hits * l1_hit + misses * self.bank_latency
        if self.coherence is not None and action.obj is not None:
            cost += self.coherence.penalty(
                core.cid, action.obj, action.reads, action.writes
            )
        return cost

    def cell_access(self, core, task, action) -> Optional[float]:
        """Cells degenerate to ordinary shared objects on this architecture.

        This lets distributed-memory workload code run unchanged on the
        shared-memory architecture type: a cell access is an atomic
        bank access with coherence effects when enabled.
        """
        cell = action.cell.deref() if isinstance(action.cell, Link) else action.cell
        cost = self.bank_latency + self.atomic_op_cycles
        if self.coherence is not None:
            reads = 1 if "r" in action.mode else 0
            writes = 1 if "w" in action.mode else 0
            cost += self.coherence.penalty(core.cid, cell, reads, writes)
        return cost

    def new_cell(self, data=None, size: float = 64.0, home: int = 0) -> Cell:
        """Create a cell (placement is irrelevant on shared memory)."""
        return Cell(data=data, size=size, owner=home)
