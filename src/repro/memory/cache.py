"""Simple cache timing models.

SiMany's cache model is deliberately simple and pessimistic: data do not
stay in the L1 across function boundaries of the executed program (paper,
Section V), so virtual-time runs derive L1 hits purely from block-local
annotations.  The cycle-level referee instead tracks object residency in a
small LRU structure, giving it genuinely different (more detailed) timing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


class LruCache:
    """Object-granularity LRU cache used by the cycle-level referee.

    Capacity is counted in objects (the simulation's addressable units);
    this is coarser than a line-granularity cache but exposes the same
    locality and invalidation behaviour at the abstraction level the
    workloads are annotated at.
    """

    def __init__(self, capacity: int, hit_latency: float, miss_latency: float) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if hit_latency < 0 or miss_latency < hit_latency:
            raise ValueError("latencies must satisfy 0 <= hit <= miss")
        self.capacity = capacity
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self._entries: "OrderedDict[Hashable, None]" = OrderedDict()
        self.stats = CacheStats()

    def access(self, obj: Hashable) -> float:
        """Touch ``obj``; return the access latency."""
        entries = self._entries
        if obj in entries:
            entries.move_to_end(obj)
            self.stats.hits += 1
            return self.hit_latency
        self.stats.misses += 1
        entries[obj] = None
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        return self.miss_latency

    def contains(self, obj: Hashable) -> bool:
        """Whether the object is currently resident."""
        return obj in self._entries

    def invalidate(self, obj: Hashable) -> bool:
        """Drop ``obj`` if resident (coherence); return whether it was."""
        if obj in self._entries:
            del self._entries[obj]
            self.stats.invalidations += 1
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (task boundary in the pessimistic model)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

