"""NUMA memory organization: distributed banks *with* hardware coherence.

The paper's architecture variability spans "a single shared memory with
uniform latency to fully distributed banks with or without hardware
coherence" (Section III).  The shared and runtime-managed (cell) models
cover the two ends; this model covers the middle: every core owns a local
memory bank, objects have a fixed home bank, and hardware keeps caches
coherent — data does not migrate, accesses travel.

Timing: L1 hits per block annotation; misses go to the object's home bank
— the local bank latency when home, plus an uncontended NoC round trip
when remote — with directory coherence penalties on top.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

from .base import MemoryModel
from .cells import Cell, Link
from .coherence import CoherenceModel


def stable_home(obj, n_cores: int) -> int:
    """Deterministic home bank for an object key.

    Uses CRC32 of the key's repr, so placement is stable across runs for
    value-like keys (tuples of strings/ints), which the workloads use.
    """
    return zlib.crc32(repr(obj).encode()) % n_cores


class NumaMemoryModel(MemoryModel):
    """Distributed banks + hardware coherence (home-based placement)."""

    def __init__(
        self,
        bank_latency: float = 10.0,
        l1_latency: float = 1.0,
        coherence: Optional[CoherenceModel] = None,
        atomic_op_cycles: float = 2.0,
    ) -> None:
        if bank_latency < 0 or l1_latency < 0:
            raise ValueError("latencies must be non-negative")
        self.bank_latency = bank_latency
        self.l1_latency = l1_latency
        self.coherence = coherence or CoherenceModel()
        self.atomic_op_cycles = atomic_op_cycles
        self._home_cache: Dict[object, int] = {}
        self.local_accesses = 0
        self.remote_accesses = 0

    def _home(self, obj, bank: Optional[int]) -> int:
        if bank is not None:
            return bank % self.machine.n_cores
        home = self._home_cache.get(obj)
        if home is None:
            home = stable_home(obj, self.machine.n_cores)
            self._home_cache[obj] = home
        return home

    def _remote_penalty(self, cid: int, home: int) -> float:
        """Uncontended NoC round trip to a remote bank."""
        if home == cid:
            return 0.0
        return 2.0 * self.machine.noc.min_latency(cid, home)

    def access(self, core, action) -> float:
        n = action.reads + action.writes
        if n == 0:
            return 0.0
        l1_hit = self.l1_latency * core.speed_factor
        hits = n * action.l1_hit_fraction
        misses = n - hits
        home = self._home(action.obj, action.bank)
        if home == core.cid:
            self.local_accesses += 1
            miss_cost = self.bank_latency
        else:
            self.remote_accesses += 1
            miss_cost = self.bank_latency + self._remote_penalty(core.cid, home)
        cost = hits * l1_hit + misses * miss_cost
        if self.coherence is not None and action.obj is not None:
            cost += self.coherence.penalty(
                core.cid, action.obj, action.reads, action.writes
            )
        return cost

    def cell_access(self, core, task, action) -> Optional[float]:
        """Cells are home-pinned objects: access travels, data stays."""
        cell = action.cell.deref() if isinstance(action.cell, Link) else action.cell
        home = cell.owner % self.machine.n_cores
        cost = self.bank_latency + self.atomic_op_cycles
        cost += self._remote_penalty(core.cid, home)
        if self.coherence is not None:
            reads = 1 if "r" in action.mode else 0
            writes = 1 if "w" in action.mode else 0
            cost += self.coherence.penalty(core.cid, cell, reads, writes)
        if home == core.cid:
            self.local_accesses += 1
        else:
            self.remote_accesses += 1
        return cost

    def new_cell(self, data=None, size: float = 64.0, home: int = 0) -> Cell:
        """Create a cell pinned to its home bank (ownership never moves)."""
        return Cell(data=data, size=size, owner=home)
