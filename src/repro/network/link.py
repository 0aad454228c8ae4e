"""Interconnect links.

Each directed link has a base traversal latency (cycles) and a bandwidth
(bytes per cycle).  Messages are split into chunks (paper: the size of
message chunks and the time to process them are tunable); a link is
occupied for the serialization time of the whole message, which is how
contention on individual links is modelled (the paper contrasts SiMany
with BigSim precisely on per-link contention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Paper defaults for the distributed-memory architecture type.
DEFAULT_LATENCY = 1.0  # cycles per link traversal
DEFAULT_BANDWIDTH = 128.0  # bytes per cycle
DEFAULT_CHUNK_BYTES = 64


@dataclass(frozen=True)
class LinkSpec:
    """Static description of a link: latency in cycles, bandwidth in B/cycle."""

    latency: float = DEFAULT_LATENCY
    bandwidth: float = DEFAULT_BANDWIDTH

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("link latency must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")


@dataclass(slots=True)
class Link:
    """Run-time state of one directed link.

    ``busy_until`` is the virtual time at which the link finishes serializing
    the last message routed through it; messages arriving earlier queue up,
    accumulating ``contention_cycles``.
    """

    spec: LinkSpec
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    busy_until: float = 0.0
    contention_cycles: float = field(default=0.0)
    #: Serialization times by message size: the protocol uses a handful
    #: of fixed sizes, so every traversal after the first is a dict hit.
    _ser_cache: dict = field(default_factory=dict, repr=False)

    def serialization_time(self, size_bytes: float) -> float:
        """Cycles to push ``size_bytes`` through this link, chunk-quantized."""
        cached = self._ser_cache.get(size_bytes)
        if cached is not None:
            return cached
        if size_bytes < 0:
            raise ValueError("message size must be non-negative")
        if size_bytes == 0:
            result = 0.0
        else:
            chunks = max(1, math.ceil(size_bytes / self.chunk_bytes))
            result = chunks * (self.chunk_bytes / self.spec.bandwidth)
        self._ser_cache[size_bytes] = result
        return result

    def traverse(self, ready_time: float, size_bytes: float) -> float:
        """Route a message through the link; return its head-arrival time.

        ``ready_time`` is the virtual time at which the message head reaches
        the link's input.  Contention delays the message until the link is
        free; the link then stays busy for the serialization time.
        """
        busy = self.busy_until
        if ready_time >= busy:
            start = ready_time
        else:
            start = busy
            self.contention_cycles += start - ready_time
        serialization = self.serialization_time(size_bytes)
        self.busy_until = start + serialization
        return start + self.spec.latency + serialization

    def reset(self) -> None:
        """Clear run-time state (between simulations)."""
        self.busy_until = 0.0
        self.contention_cycles = 0.0
