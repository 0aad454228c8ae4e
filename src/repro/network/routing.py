"""Routing tables.

A route ``src -> dst`` is the path to ``dst`` in ``src``'s own
latency-shortest-path tree, with ties resolved by (distance, node id).
On an unmodified ``mesh2d`` whose links share one latency (``topo.grid``
set) that path has a closed form — x then y when the destination row is
at or below the source row, y then x when it is above — and no search
runs.  Every other topology (torus, ring, crossbar, clustered,
hierarchical, ``from_adjacency``, mixed latencies, an added link) runs
one resumable, early-exit Dijkstra per source that a message leaves;
direct neighbours skip it (the run-time system dispatches to neighbours).
A route is resolved on each call and not retained: its one caller, the
NoC, keeps its own entry per pair that talks, so a copy here would only
double the per-pair memory of a large machine.

The route's latency is the left-to-right sum of the link latencies along
the path.  With latencies whose sums are exact in floating point (every
preset: 1.0, 0.5, 4.0) this is also the route a hop-by-hop walk through
each intermediate core's own tree would take; otherwise the two can
differ, and the source-tree route is never the longer one.  See
docs/internals.md, "Route resolution".
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, List, Optional, Tuple

from .topology import Topology

Path = Tuple[int, ...]


def _grid_walk(width: int, src: int, dst: int, x_first: bool) -> List[int]:
    """Nodes of the dimension-ordered walk ``src -> dst`` on a grid whose
    core ``(x, y)`` is ``y * width + x``: one axis fully, then the other."""
    sy, sx = divmod(src, width)
    dy, dx = divmod(dst, width)
    x_leg = [1 if dx > sx else -1] * abs(dx - sx)
    y_leg = [width if dy > sy else -width] * abs(dy - sy)
    nodes = [src]
    for step in (x_leg + y_leg if x_first else y_leg + x_leg):
        nodes.append(nodes[-1] + step)
    return nodes


class RoutingTable:
    """Shortest-path routing from per-source trees, grown on demand.

    Keeps no per-pair state: :meth:`route` resolves a pair on each call.
    The per-source trees of non-grid topologies are kept, so a later
    query from the same source resumes the search instead of restarting.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        # src -> (dist, parent, settled, heap): the partial shortest-path
        # tree and the heap its search resumes from.  Typed arrays, not
        # lists or dicts: at 1024 cores the trees of one run decide
        # whether peak RSS rises (see docs/internals.md).
        self._trees: Dict[int, Tuple[array, array, bytearray, list]] = {}
        # (neighbour, latency) rows snapshotted from the topology for the
        # search's inner loop; rebuilt after clear_cache().
        self._rows: Optional[List[Tuple[Tuple[int, float], ...]]] = None
        # (cheapest, dearest) link latency, computed on first use.
        self._latency_range: Optional[Tuple[float, float]] = None

    @property
    def trees_built(self) -> int:
        """Number of sources whose shortest-path tree has been started."""
        return len(self._trees)

    def _latencies(self) -> Tuple[float, float]:
        """Cheapest and dearest link latency in the topology (cached)."""
        if self._latency_range is None:
            lats = [spec.latency for _, _, spec in self.topo.edges()]
            self._latency_range = (min(lats, default=0.0),
                                   max(lats, default=0.0))
        return self._latency_range

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

    def route(self, src: int, dst: int) -> Tuple[Path, float]:
        """``(path, latency)`` of the route, resolved on each call."""
        if src == dst:
            return (src,), 0.0
        grid = self.topo.grid
        lo, hi = self._latencies()
        if grid is not None and lo == hi:
            # Closed form of the (distance, id) tree path on a uniform
            # mesh: x first unless the destination row is above.
            width = grid[0]
            nodes = _grid_walk(width, src, dst, dst // width >= src // width)
            total = 0.0
            for _ in range(len(nodes) - 1):
                total += lo
            return tuple(nodes), total
        # Fast path: most run-time traffic is neighbour-to-neighbour
        # (dispatch goes to neighbours only).  The direct link is provably
        # shortest when its latency is at most twice the cheapest link in
        # the whole topology: any detour uses at least two links.  This
        # avoids growing a tree for sources that never talk further.
        if self.topo.has_link(src, dst):
            direct = self.topo.link_spec(src, dst).latency
            if direct <= 2 * lo:
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
        """Drop the search state (after topology changes): the per-source
        trees, the link-row snapshot and the latency range."""
        self._trees.clear()
        self._rows = None
        self._latency_range = None


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

    def route(self, src: int, dst: int) -> Tuple[Path, float]:
        nodes = _grid_walk(self.width, src, dst, x_first=True)
        total = 0.0
        for u, v in zip(nodes, nodes[1:]):
            if not self.topo.has_link(u, v):
                raise ValueError(
                    f"XY route {src}->{dst} needs missing link {u}-{v}; "
                    "XY routing requires a full 2D mesh"
                )
            total += self.topo.link_spec(u, v).latency
        return tuple(nodes), total
