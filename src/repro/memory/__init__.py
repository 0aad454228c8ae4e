"""Memory hierarchy substrate: caches, coherence, shared and distributed models."""

from .base import MemoryModel
from .cache import CacheStats, LruCache
from .cells import Cell, Link
from .coherence import CoherenceModel, CoherenceStats
from .distmem import DEFAULT_L2_LATENCY, DistributedMemoryModel
from .numa import NumaMemoryModel, stable_home
from .sharedmem import (
    DEFAULT_BANK_LATENCY,
    DEFAULT_L1_LATENCY,
    SharedMemoryModel,
)

__all__ = [
    "CacheStats",
    "Cell",
    "CoherenceModel",
    "CoherenceStats",
    "DEFAULT_BANK_LATENCY",
    "DEFAULT_L1_LATENCY",
    "DEFAULT_L2_LATENCY",
    "DistributedMemoryModel",
    "Link",
    "LruCache",
    "MemoryModel",
    "NumaMemoryModel",
    "stable_home",
    "SharedMemoryModel",
]
