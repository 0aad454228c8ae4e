"""Parallel single-source shortest paths (paper, Section V).

A label-correcting parallelization of Dijkstra's algorithm in the style of
Capsule [29]: tasks carry tentative distances along paths; a task reaching a
node with a distance no better than the stored one terminates quickly,
freeing its core for more interesting paths.  Already-explored paths may
have to be explored again when reached with a lower distance.

More cores mean more concurrently explored paths, raising the probability
of tagging nodes with near-optimal distances early — which prunes the
search and produces the paper's super-linear speedups on the optimistic
shared-memory architecture (up to 4282x in the paper).  On distributed
memory, the per-node distance cells ping-pong between explorers and
performance collapses (Fig. 9).

The output is one ``array('d')`` of distances from the source, ``inf``
where a node is unreachable.  Verification compares it against a
sequential Dijkstra reference (``_reference``), pinned equal to networkx
by ``tests/test_workloads.py``.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import List, Optional, Tuple

from .base import DataSpace, WorkloadRun, make_space, spread_home
from .generators import adjacency_lists, params_for, random_graph
from ..core.task import TaskGroup
from ..timing.annotator import Block
from ..timing.isa import InstrClass

#: Work per relaxed node (distance compare + update bookkeeping).
RELAX_NODE = Block(
    "sssp-relax",
    instr_counts={InstrClass.INT_ALU: 8, InstrClass.LOAD: 2, InstrClass.STORE: 1},
    cond_branches=2,
)
#: Work per scanned outgoing edge.
SCAN_EDGE = Block(
    "sssp-edge",
    instr_counts={InstrClass.INT_ALU: 3, InstrClass.LOAD: 1},
    cond_branches=1,
)

#: A task hands off half its frontier when it grows beyond this.
FRONTIER_SPLIT = 6

SOURCE = 0


def explore_task(ctx, space: DataSpace, adj, dists, frontier: List[Tuple[int, int]],
                 group: TaskGroup):
    """Explore (node, tentative-distance) pairs, re-exploring improvements."""
    while frontier:
        node, dist = frontier.pop()
        yield ctx.compute(block=RELAX_NODE)
        # Atomic relax: separate read/write actions would race between
        # interleaved tasks and overwrite a better distance.
        improved = [False]

        def relax(current, _d=dist, _flag=improved):
            if current is None or _d < current:
                _flag[0] = True
                return _d
            return current

        yield from space.update(ctx, dists[node], relax)
        if not improved[0]:
            continue  # a better path already reached this node
        edges = adj[node]
        if edges:
            yield ctx.compute(block=SCAN_EDGE, repeat=len(edges))
        for nbr, weight in edges:
            frontier.append((nbr, dist + weight))
        if len(frontier) > FRONTIER_SPLIT:
            half = frontier[len(frontier) // 2:]
            del frontier[len(frontier) // 2:]
            spawned = yield ctx.try_spawn(
                explore_task, space, adj, dists, half, group, group=group
            )
            if not spawned:
                frontier.extend(half)


def _reference(adj) -> List[float]:
    """Sequential Dijkstra distances from SOURCE (inf when unreachable).

    Walks the same adjacency lists the simulated tasks do, so the lightest
    of several parallel edges wins.
    """
    dists: List[float] = [math.inf] * len(adj)
    dists[SOURCE] = 0
    heap = [(0, SOURCE)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > dists[node]:
            continue  # stale entry: node was settled through a shorter path
        for nbr, weight in adj[node]:
            via = dist + weight
            if via < dists[nbr]:
                dists[nbr] = via
                heapq.heappush(heap, (via, nbr))
    return dists


def make_workload(scale: str = "small", seed: int = 0, memory: str = "shared",
                  nodes: Optional[int] = None, edges: Optional[int] = None,
                  **_ignored) -> WorkloadRun:
    """Dijkstra workload instance."""
    params = params_for("dijkstra", scale)
    nodes = nodes if nodes is not None else params["nodes"]
    n_edges = edges if edges is not None else params["edges"]
    edge_list = random_graph(nodes, n_edges, seed=seed, weighted=True)
    adj = adjacency_lists(nodes, edge_list)
    space = make_space(memory)

    def root(ctx):
        n_cores = ctx.n_cores
        dists = [
            space.new(ctx, ("sssp", v), None, size=16.0,
                      home=spread_home(v, n_cores))
            for v in range(nodes)
        ]
        group = TaskGroup("sssp")
        yield from ctx.spawn_or_inline(
            explore_task, space, adj, dists, [(SOURCE, 0)], group, group=group
        )
        yield ctx.join(group)
        done = yield ctx.now()
        out = array("d")
        for v in range(nodes):
            d = yield from space.read(ctx, dists[v])
            out.append(math.inf if d is None else d)
        return {"output": out, "work_vtime": done}

    expected = _reference(adj)

    def verify(result):
        assert len(result) == nodes
        for v, (got, want) in enumerate(zip(result, expected)):
            assert got == want, f"distance mismatch at node {v}: {got} != {want}"

    def native():
        dists: List[Optional[int]] = [None] * nodes
        stack = [(SOURCE, 0)]
        while stack:
            node, dist = stack.pop()
            if dists[node] is not None and dists[node] <= dist:
                continue
            dists[node] = dist
            for nbr, weight in adj[node]:
                stack.append((nbr, dist + weight))
        return array("d", [math.inf if d is None else d for d in dists])

    return WorkloadRun(
        name="dijkstra",
        root=root,
        verify=verify,
        native=native,
        meta={"nodes": nodes, "edges": n_edges, "seed": seed, "memory": memory},
    )
