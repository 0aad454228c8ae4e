"""Dataset generators for the dwarf benchmarks (paper, Section V).

All generators are deterministic given their seed.  Default sizes are
scaled-down versions of the paper's datasets (50 arrays of 100 000
elements, graphs of 1000-2000 nodes, 10^6 x 10^6 sparse matrices); the
``paper`` scale reproduces the published sizes for users with patience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Per-scale dataset parameters, one entry per benchmark family.
SCALE_PARAMS: Dict[str, Dict[str, Dict[str, int]]] = {
    "tiny": {
        "quicksort": {"n": 200},
        "connected_components": {"nodes": 60, "edges": 120},
        "dijkstra": {"nodes": 80, "edges": 140},
        "barnes_hut": {"bodies": 24},
        "spmxv": {"rows": 64, "nnz_per_row": 4},
        "octree": {"depth": 3, "objects_per_leaf": 2},
    },
    "small": {
        "quicksort": {"n": 1000},
        "connected_components": {"nodes": 150, "edges": 300},
        "dijkstra": {"nodes": 200, "edges": 320},
        "barnes_hut": {"bodies": 64},
        "spmxv": {"rows": 256, "nnz_per_row": 8},
        "octree": {"depth": 4, "objects_per_leaf": 2},
    },
    "medium": {
        "quicksort": {"n": 4000},
        "connected_components": {"nodes": 400, "edges": 800},
        "dijkstra": {"nodes": 500, "edges": 800},
        "barnes_hut": {"bodies": 128},
        "spmxv": {"rows": 1024, "nnz_per_row": 12},
        "octree": {"depth": 5, "objects_per_leaf": 2},
    },
    "paper": {
        "quicksort": {"n": 100_000},
        "connected_components": {"nodes": 1000, "edges": 2000},
        "dijkstra": {"nodes": 2000, "edges": 3000},
        "barnes_hut": {"bodies": 200},
        "spmxv": {"rows": 1_000_000, "nnz_per_row": 50},
        "octree": {"depth": 6, "objects_per_leaf": 2},
    },
}


def params_for(benchmark: str, scale: str) -> Dict[str, int]:
    """Dataset parameters of one benchmark at one scale."""
    try:
        return dict(SCALE_PARAMS[scale][benchmark])
    except KeyError as exc:
        raise ValueError(f"unknown scale/benchmark: {scale}/{benchmark}") from exc


def random_array(n: int, seed: int = 0) -> np.ndarray:
    """A random int64 array for Quicksort, values in ``[0, 10 n)``."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10 * max(n, 1), size=n)


def random_graph(
    nodes: int, edges: int, seed: int = 0, weighted: bool = False
) -> List[Tuple]:
    """A random (multi-)graph as an edge list; may be disconnected.

    Matches the paper's Connected Components datasets (1000 nodes / 2000
    edges) and Dijkstra datasets (2000 nodes / ~3000 edges, weighted).
    """
    rng = np.random.default_rng(seed)
    us = rng.integers(0, nodes, size=edges)
    vs = rng.integers(0, nodes, size=edges)
    if weighted:
        ws = rng.integers(1, 100, size=edges)
        return [(int(u), int(v), int(w)) for u, v, w in zip(us, vs, ws) if u != v]
    return [(int(u), int(v)) for u, v in zip(us, vs) if u != v]


def adjacency_lists(nodes: int, edges: List[Tuple]) -> List[List]:
    """Undirected adjacency lists from an edge list."""
    adj: List[List] = [[] for _ in range(nodes)]
    for edge in edges:
        if len(edge) == 3:
            u, v, w = edge
            adj[u].append((v, w))
            adj[v].append((u, w))
        else:
            u, v = edge
            adj[u].append(v)
            adj[v].append(u)
    return adj


@dataclass
class Body:
    """A point mass for Barnes-Hut."""

    x: float
    y: float
    z: float
    mass: float


def random_bodies(n: int, seed: int = 0) -> List[Body]:
    """Random bodies in the unit cube (paper: 128- and 200-body sets)."""
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    mass = rng.random(n) + 0.1
    return [Body(float(p[0]), float(p[1]), float(p[2]), float(m))
            for p, m in zip(pos, mass)]


def random_sparse_matrix(
    rows: int, nnz_per_row: int, seed: int = 0
) -> sp.csr_matrix:
    """A random square CSR matrix with ~nnz_per_row entries per row."""
    import scipy.sparse as sp  # at the use site: only spmxv pays for scipy

    rng = np.random.default_rng(seed)
    nnz = rows * nnz_per_row
    data = rng.random(nnz) + 0.01
    row_idx = np.repeat(np.arange(rows), nnz_per_row)
    col_idx = rng.integers(0, rows, size=nnz)
    mat = sp.csr_matrix((data, (row_idx, col_idx)), shape=(rows, rows))
    mat.sum_duplicates()
    return mat


def structured_sparse_matrix(
    rows: int, bandwidth: int = 5, seed: int = 0
) -> sp.csr_matrix:
    """A banded matrix standing in for the Matrix Market collection entries."""
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    diags = []
    offsets = []
    for k in range(-bandwidth, bandwidth + 1):
        diags.append(rng.random(rows - abs(k)) + 0.01)
        offsets.append(k)
    return sp.diags(diags, offsets, shape=(rows, rows), format="csr")


@dataclass
class OctreeNode:
    """One node of the Octree benchmark's spatial tree."""

    nid: int
    depth: int
    children: List["OctreeNode"]
    objects: List[float]


def random_octree(
    depth: int, objects_per_leaf: int = 2, branching: int = 8,
    fill: float = 0.6, seed: int = 0,
) -> OctreeNode:
    """A randomly pruned octree of the given depth (paper: depth 6).

    ``fill`` is the probability that a child subtree exists, keeping the
    tree irregular like real spatial octrees.
    """
    rng = np.random.default_rng(seed)
    counter = [0]

    def build(level: int) -> OctreeNode:
        nid = counter[0]
        counter[0] += 1
        objects = [float(x) for x in rng.random(objects_per_leaf)]
        children = []
        if level < depth:
            for _ in range(branching):
                if rng.random() < fill:
                    children.append(build(level + 1))
        return OctreeNode(nid, level, children, objects)

    root = build(0)
    # Guarantee the root is not degenerate.
    if not root.children and depth > 0:
        root.children.append(build(1))
    return root


def octree_size(node: OctreeNode) -> int:
    """Number of nodes in an octree."""
    return 1 + sum(octree_size(child) for child in node.children)
