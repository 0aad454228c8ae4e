"""Network-on-chip timing model.

The NoC computes, for every message, its virtual arrival time at the
destination: the departure time plus the sum of link latencies and router
penalties along the route, the serialization time of the message's chunks,
and any contention delay on individual links (each directed link tracks
its own busy window).

It also enforces the ordering guarantee of Section II-B: a core receives
all messages coming from another given core in the order the latter sent
them; only messages from *different* sources may be processed out of order.
This is realized by never letting the arrival time of a (src, dst) pair
regress below the previous message's arrival time.

The NoC holds the only per-pair state of a machine: one route entry per
pair that has carried a message (its links, hop count, base latency and
FIFO floor) and one ``min_latency`` value per pair that asked for it,
both keyed by ``src * n_cores + dst``.  The routing table keeps none, so
a pair's path is resolved once, on its first miss here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .link import DEFAULT_CHUNK_BYTES, Link
from .routing import RoutingTable
from .topology import Topology


@dataclass(slots=True)
class NocStats:
    """Aggregate NoC counters for one simulation."""

    messages: int = 0
    total_bytes: float = 0.0
    total_hops: int = 0
    contention_cycles: float = 0.0
    fifo_adjustments: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for report tables."""
        return {
            "messages": self.messages,
            "total_bytes": self.total_bytes,
            "total_hops": self.total_hops,
            "contention_cycles": self.contention_cycles,
            "fifo_adjustments": self.fifo_adjustments,
        }


class Noc:
    """Message timing over a topology.

    Parameters mirror the paper's tunables: per-link latency/bandwidth live
    in the topology's ``LinkSpec``s; ``router_penalty`` is the per-hop
    routing cost; ``chunk_bytes`` the message chunk size; ``model_contention``
    toggles per-link busy tracking (the optimistic shared-memory architecture
    type ignores interconnect contention entirely and does not use a Noc).
    """

    def __init__(
        self,
        topo: Topology,
        router_penalty: float = 1.0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        model_contention: bool = True,
        routing: Optional[RoutingTable] = None,
    ) -> None:
        if router_penalty < 0:
            raise ValueError("router penalty must be non-negative")
        if chunk_bytes <= 0:
            raise ValueError("chunk size must be positive")
        self.topo = topo
        self.routing = routing or RoutingTable(topo)
        self.router_penalty = router_penalty
        self.chunk_bytes = chunk_bytes
        self.model_contention = model_contention
        self._n = topo.n_cores
        self._links: Dict[Tuple[int, int], Link] = {}
        # Per-pair route entry [links, hops, base latency, serialization
        # link, FIFO floor]: the path is static, so everything but the
        # floor is resolved once per pair instead of per message; the
        # floor is the pair's last arrival time.
        self._route_cache: Dict[int, list] = {}
        self._min_latency_memo: Dict[int, float] = {}
        self.stats = NocStats()

    def _link(self, u: int, v: int) -> Link:
        key = (u, v)
        link = self._links.get(key)
        if link is None:
            link = Link(self.topo.link_spec(u, v), chunk_bytes=self.chunk_bytes)
            self._links[key] = link
        return link

    # ------------------------------------------------------------------
    def _route(self, key: int, src: int, dst: int) -> List:
        """Resolve a pair's route entry on its first message; the route
        is static for a simulation."""
        path, latency = self.routing.route(src, dst)
        links = tuple(self._link(u, v) for u, v in zip(path, path[1:]))
        entry = [links, len(path) - 1, latency, links[0], 0.0]
        self._route_cache[key] = entry
        return entry

    def delivery_time(self, src: int, dst: int, size_bytes: float, depart: float) -> float:
        """Compute (and commit) the arrival time of one message.

        Returns the virtual time at which the destination may start
        processing the message.  Local messages (src == dst) cost nothing:
        they never touch the interconnect.
        """
        if size_bytes < 0:
            raise ValueError("message size must be non-negative")
        if src == dst:
            return depart
        key = src * self._n + dst
        entry = self._route_cache.get(key)
        if entry is None:
            entry = self._route(key, src, dst)
        links, hops, path_latency, first_link, floor = entry
        stats = self.stats
        if self.model_contention:
            t = depart
            penalty = self.router_penalty
            for link in links:
                before = link.contention_cycles
                t = link.traverse(t, size_bytes) + penalty
                stats.contention_cycles += link.contention_cycles - before
        else:
            # Latency + one serialization (pipelined/wormhole) + hop penalties.
            t = depart + path_latency
            t += first_link.serialization_time(size_bytes) + self.router_penalty * hops

        stats.messages += 1
        stats.total_bytes += size_bytes
        stats.total_hops += hops

        # Per-source FIFO: arrival times of a (src, dst) stream never regress.
        if t < floor:
            t = floor
            stats.fifo_adjustments += 1
        entry[4] = t
        return t

    def min_latency(self, src: int, dst: int) -> float:
        """Uncontended, zero-size message latency between two cores."""
        if src == dst:
            return 0.0
        key = src * self._n + dst
        cached = self._min_latency_memo.get(key)
        if cached is None:
            path, latency = self.routing.route(src, dst)
            cached = latency + self.router_penalty * (len(path) - 1)
            self._min_latency_memo[key] = cached
        return cached

    def reset(self) -> None:
        """Clear all run-time state (links, FIFO floors, stats)."""
        for link in self._links.values():
            link.reset()
        for entry in self._route_cache.values():
            entry[4] = 0.0
        self.stats = NocStats()
