"""Routing tables.

A route ``src -> dst`` is the path to ``dst`` in ``src``'s own
latency-shortest-path tree: one Dijkstra per source that a message
actually leaves, with ties resolved by (distance, node id).  The search
is resumable and exits early — it settles nodes only until the queried
destination is settled and picks up from its live heap on the next
query — so a source that only talks to near cores never sweeps a
1024-core mesh.  Direct neighbours skip the search entirely (the
run-time system dispatches tasks to neighbours only).

The route's latency is the source's Dijkstra distance, which is the
left-to-right sum of the link latencies along the path.  With latencies
whose sums are exact in floating point (every preset: 1.0, 0.5, 4.0)
this is also the route a hop-by-hop walk through each intermediate
core's own tree would take; with heterogeneous latencies that tie only
up to rounding the two can differ, and the source-tree route is never
the longer one.  See docs/internals.md, "Route resolution".
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, List, Optional, Tuple

from .topology import Topology

Path = Tuple[int, ...]


class RoutingTable:
    """Shortest-path routing from per-source trees, grown on demand."""

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        # (src, dst) -> (path, latency) of every pair resolved so far.
        self._path_cache: Dict[Tuple[int, int], Tuple[Path, float]] = {}
        # src -> (dist, parent, settled, heap): the partial shortest-path
        # tree and the heap its search resumes from.  Typed arrays, not
        # lists or dicts: at 1024 cores the trees of one run decide
        # whether peak RSS rises (see docs/internals.md).
        self._trees: Dict[int, Tuple[array, array, bytearray, list]] = {}
        # (neighbour, latency) rows snapshotted from the topology for the
        # search's inner loop; rebuilt after clear_cache().
        self._rows: Optional[List[Tuple[Tuple[int, float], ...]]] = None
        self._min_latency: Optional[float] = None

    @property
    def trees_built(self) -> int:
        """Number of sources whose shortest-path tree has been started."""
        return len(self._trees)

    def _global_min_latency(self) -> float:
        """Cheapest link latency in the topology (lazy, cached)."""
        if self._min_latency is None:
            self._min_latency = min(
                (spec.latency for _, _, spec in self.topo.edges()),
                default=0.0,
            )
        return self._min_latency

    def _settle(self, src: int, dst: int) -> Tuple[array, array]:
        """Grow ``src``'s tree until ``dst`` is settled; return (dist, parent)."""
        tree = self._trees.get(src)
        if tree is None:
            n = self.topo.n_cores
            dist = array("d", [float("inf")]) * n
            dist[src] = 0.0
            tree = (dist, array("i", [-1]) * n, bytearray(n), [(0.0, src)])
            self._trees[src] = tree
        dist, parent, settled, heap = tree
        if settled[dst]:
            return dist, parent
        rows = self._rows
        if rows is None:
            topo = self.topo
            rows = self._rows = [
                tuple((v, topo.link_spec(u, v).latency)
                      for v in topo.neighbors(u))
                for u in range(topo.n_cores)
            ]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, u = pop(heap)
            if settled[u]:
                continue
            settled[u] = 1
            # Relax before the exit test, so that every settled node has
            # had its links relaxed when a later query resumes.
            for v, latency in rows[u]:
                nd = d + latency
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    push(heap, (nd, v))
            if u == dst:
                return dist, parent
        raise ValueError(f"no route from {src} to {dst}")

    def _resolve(self, src: int, dst: int) -> Tuple[Path, float]:
        """Path and latency of one pair (uncached)."""
        if src == dst:
            return (src,), 0.0
        # Fast path: most run-time traffic is neighbour-to-neighbour
        # (dispatch goes to neighbours only).  The direct link is provably
        # shortest when its latency is at most twice the cheapest link in
        # the whole topology: any detour uses at least two links.  This
        # avoids growing a tree for sources that never talk further.
        if self.topo.has_link(src, dst):
            direct = self.topo.link_spec(src, dst).latency
            if direct <= 2 * self._global_min_latency():
                # 0.0 + ...: the same float a search would return, also
                # for a latency given as an int.
                return (src, dst), 0.0 + direct
        dist, parent = self._settle(src, dst)
        nodes = [dst]
        cur = dst
        while cur != src:
            cur = parent[cur]
            nodes.append(cur)
        nodes.reverse()
        return tuple(nodes), dist[dst]

    def route(self, src: int, dst: int) -> Tuple[Path, float]:
        """``(path, latency)`` of the route, resolved once per pair."""
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is None:
            cached = self._path_cache[key] = self._resolve(src, dst)
        return cached

    def path(self, src: int, dst: int) -> Path:
        """Full node path ``src, ..., dst`` (inclusive)."""
        return self.route(src, dst)[0]

    def next_hop(self, src: int, dst: int) -> int:
        """First hop on the route from ``src`` to ``dst``."""
        if src == dst:
            return dst
        return self.route(src, dst)[0][1]

    def hop_count(self, src: int, dst: int) -> int:
        """Number of links on the route."""
        return len(self.route(src, dst)[0]) - 1

    def path_latency(self, src: int, dst: int) -> float:
        """Sum of base link latencies along the route (no contention)."""
        return self.route(src, dst)[1]

    def clear_cache(self) -> None:
        """Drop all cached routes (after topology changes)."""
        self._path_cache.clear()
        self._trees.clear()
        self._rows = None
        self._min_latency = None


class XYRouting(RoutingTable):
    """Dimension-ordered (XY) routing for 2D meshes.

    The deterministic, deadlock-free routing discipline of most real
    mesh NoCs: traverse the X dimension fully, then the Y dimension.
    Produces minimal paths of the same length as shortest-path routing on
    uniform meshes, but with a fixed, congestion-oblivious shape — useful
    for studying routing-induced hotspots.
    """

    def __init__(self, topo: Topology, width: int) -> None:
        super().__init__(topo)
        if width <= 0 or topo.n_cores % width:
            raise ValueError("mesh width must divide the core count")
        self.width = width

    def _resolve(self, src: int, dst: int) -> Tuple[Path, float]:
        width = self.width
        sx, sy = src % width, src // width
        dx, dy = dst % width, dst // width
        nodes = [src]
        x, y = sx, sy
        while x != dx:
            x += 1 if dx > x else -1
            nodes.append(y * width + x)
        while y != dy:
            y += 1 if dy > y else -1
            nodes.append(y * width + x)
        total = 0.0
        for u, v in zip(nodes, nodes[1:]):
            if not self.topo.has_link(u, v):
                raise ValueError(
                    f"XY route {src}->{dst} needs missing link {u}-{v}; "
                    "XY routing requires a full 2D mesh"
                )
            total += self.topo.link_spec(u, v).latency
        return tuple(nodes), total
