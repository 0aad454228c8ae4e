"""Connected Components (paper, Section V).

Since the graph topology is not known in advance, depth-first searches are
launched from lots of nodes in parallel.  Tags (component labels) live in
shared records (or cells on distributed memory); nodes belonging to the
same component get tagged repeatedly by competing searches, producing the
contention that makes this benchmark's scalability peak early and collapse
on the distributed-memory architecture (Figs. 8-9).

Labels are minimum-propagated: every node ends up tagged with the smallest
start-node id of its component, which an independent union-find reference
verifies.  The output is the labels in node order, as one ``array('q')``.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

from .base import DataSpace, WorkloadRun, make_space, spread_home
from .generators import adjacency_lists, params_for, random_graph
from ..core.task import TaskGroup
from ..timing.annotator import Block
from ..timing.isa import InstrClass

#: Work per visited node: tag comparison and neighbour iteration setup.
VISIT_NODE = Block(
    "cc-visit",
    instr_counts={InstrClass.INT_ALU: 6, InstrClass.LOAD: 2, InstrClass.STORE: 1},
    cond_branches=2,
)
#: Work per scanned edge.
SCAN_EDGE = Block(
    "cc-edge",
    instr_counts={InstrClass.INT_ALU: 2, InstrClass.LOAD: 1},
    cond_branches=1,
)

#: A DFS task hands off half its frontier when it exceeds this size.
FRONTIER_SPLIT = 8
#: Number of parallel search seeds as a fraction of the node count.
SEED_FRACTION = 8  # one seed every SEED_FRACTION nodes


def dfs_task(ctx, space: DataSpace, adj: List[List[int]], tags, stack: List[int],
             label: int, group: TaskGroup):
    """Depth-first tagging with min-label propagation and frontier splits."""
    while stack:
        node = stack.pop()
        yield ctx.compute(block=VISIT_NODE)
        # Atomic min-tag: separate read/write actions would race between
        # interleaved searches and overwrite a smaller label.
        improved = [False]

        def tag_min(current, _label=label, _flag=improved):
            if current is None or _label < current:
                _flag[0] = True
                return _label
            return current

        yield from space.update(ctx, tags[node], tag_min)
        if not improved[0]:
            continue  # already tagged by an equal or better search
        neighbors = adj[node]
        if neighbors:
            yield ctx.compute(block=SCAN_EDGE, repeat=len(neighbors))
        stack.extend(neighbors)
        if len(stack) > FRONTIER_SPLIT:
            half = stack[len(stack) // 2:]
            del stack[len(stack) // 2:]
            spawned = yield ctx.try_spawn(
                dfs_task, space, adj, tags, half, label, group, group=group
            )
            if not spawned:
                stack.extend(half)


def _reference_components(nodes: int, edges) -> List[int]:
    """Union-find reference labelling (smallest member id per component)."""
    parent = list(range(nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        u, v = edge[0], edge[1]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return [find(x) for x in range(nodes)]


def make_workload(scale: str = "small", seed: int = 0, memory: str = "shared",
                  nodes: Optional[int] = None, edges: Optional[int] = None,
                  **_ignored) -> WorkloadRun:
    """Connected Components workload instance."""
    params = params_for("connected_components", scale)
    nodes = nodes if nodes is not None else params["nodes"]
    n_edges = edges if edges is not None else params["edges"]
    edge_list = random_graph(nodes, n_edges, seed=seed)
    adj = adjacency_lists(nodes, edge_list)
    space = make_space(memory)

    def root(ctx):
        n_cores = ctx.n_cores
        tags = [
            space.new(ctx, ("cc", v), None, size=16.0,
                      home=spread_home(v, n_cores))
            for v in range(nodes)
        ]
        group = TaskGroup("cc")
        # Depth-first searches launched from lots of nodes in parallel:
        # every node is a potential seed; already-tagged seeds die cheaply.
        for start in range(nodes):
            yield from ctx.spawn_or_inline(
                dfs_task, space, adj, tags, [start], start, group, group=group
            )
        yield ctx.join(group)
        done = yield ctx.now()
        out = array("q")
        for v in range(nodes):
            out.append((yield from space.read(ctx, tags[v])))
        return {"output": out, "work_vtime": done}

    expected = np.array(_reference_components(nodes, edge_list),
                        dtype=np.int64)

    def verify(result):
        assert len(result) == nodes
        assert np.array_equal(np.asarray(result), expected), \
            "component labels disagree with union-find"

    def native():
        tags: List[Optional[int]] = [None] * nodes
        for start in range(nodes):
            if tags[start] is not None:
                continue
            stack = [start]
            while stack:
                node = stack.pop()
                if tags[node] is not None and tags[node] <= start:
                    continue
                tags[node] = start
                stack.extend(adj[node])
        return array("q", tags)

    return WorkloadRun(
        name="connected_components",
        root=root,
        verify=verify,
        native=native,
        meta={"nodes": nodes, "edges": n_edges, "seed": seed, "memory": memory},
    )
