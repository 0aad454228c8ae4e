"""Interconnect topologies.

The paper specifies network topology "in a configuration file as an adjacency
matrix that gives the connections between the cores", with independently
tunable per-link latency and bandwidth, allowing arbitrary organizations such
as clustered or hierarchical ones.  This module provides that general
adjacency representation plus constructors for the families used in the
evaluation: uniform 2D meshes (8, 64, 256 and 1024 cores) and clustered
meshes (4 or 8 clusters; inter-cluster links 4 cycles, intra-cluster links
half a cycle).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .link import DEFAULT_BANDWIDTH, DEFAULT_LATENCY, LinkSpec

Edge = Tuple[int, int]


class Topology:
    """An undirected interconnect graph over cores ``0 .. n_cores-1``.

    Every undirected edge materializes as two directed links with identical
    specs (but independent contention state at the NoC level).
    """

    def __init__(self, n_cores: int, name: str = "custom") -> None:
        if n_cores <= 0:
            raise ValueError("topology needs at least one core")
        self.n_cores = n_cores
        self.name = name
        self._adj: List[Dict[int, LinkSpec]] = [dict() for _ in range(n_cores)]
        self._n_edges = 0
        #: ``(width, height)`` while this is an unmodified ``mesh2d``
        #: (core ``y * width + x``); routing walks such meshes in closed
        #: form.  Any ``add_link`` makes it a general graph again.
        self.grid: Optional[Tuple[int, int]] = None

    # -- construction -------------------------------------------------------
    def add_link(self, u: int, v: int, spec: Optional[LinkSpec] = None) -> None:
        """Add an undirected link between cores ``u`` and ``v``."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError("self-links are not allowed")
        spec = spec or LinkSpec()
        self.grid = None
        if v not in self._adj[u]:
            self._n_edges += 1
        self._adj[u][v] = spec
        self._adj[v][u] = spec

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n_cores:
            raise ValueError(f"core id {u} out of range [0, {self.n_cores})")

    # -- queries -------------------------------------------------------------
    def neighbors(self, u: int) -> Tuple[int, ...]:
        """Cores directly connected to ``u`` (the spatial-sync neighbourhood)."""
        self._check_node(u)
        return tuple(self._adj[u].keys())

    def link_spec(self, u: int, v: int) -> LinkSpec:
        """Spec of the (undirected) link between two adjacent cores."""
        self._check_node(u)
        spec = self._adj[u].get(v)
        if spec is None:
            raise KeyError(f"no link between {u} and {v}")
        return spec

    def has_link(self, u: int, v: int) -> bool:
        """Whether cores u and v are directly connected."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def edges(self) -> Iterator[Tuple[int, int, LinkSpec]]:
        """Iterate undirected edges once (u < v)."""
        for u in range(self.n_cores):
            for v, spec in self._adj[u].items():
                if u < v:
                    yield u, v, spec

    def directed_edges(self) -> Iterator[Tuple[int, int, LinkSpec]]:
        """Iterate both directions of every edge."""
        for u in range(self.n_cores):
            for v, spec in self._adj[u].items():
                yield u, v, spec

    @property
    def n_edges(self) -> int:
        """Number of undirected links."""
        return self._n_edges

    def degree(self, u: int) -> int:
        """Number of neighbours of core u."""
        return len(self._adj[u])

    # -- graph algorithms -----------------------------------------------------
    def bfs_distances(self, src: int) -> np.ndarray:
        """Hop distances from ``src`` (-1 for unreachable cores)."""
        self._check_node(src)
        dist = np.full(self.n_cores, -1, dtype=np.int64)
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def is_connected(self) -> bool:
        """True when every core can reach every other core."""
        return bool((self.bfs_distances(0) >= 0).all())

    def diameter(self) -> int:
        """Largest topological distance between two cores (hop count).

        The spatial-sync global drift bound is ``diameter * T`` (paper,
        Section II-A).  Raises on disconnected topologies.
        """
        worst = 0
        for src in range(self.n_cores):
            dist = self.bfs_distances(src)
            if (dist < 0).any():
                raise ValueError("diameter undefined: topology is disconnected")
            worst = max(worst, int(dist.max()))
        return worst

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency matrix (the paper's configuration format)."""
        mat = np.zeros((self.n_cores, self.n_cores), dtype=bool)
        for u, v, _ in self.directed_edges():
            mat[u, v] = True
        return mat

    def latency_matrix(self) -> np.ndarray:
        """Per-link latency matrix (inf where no link)."""
        mat = np.full((self.n_cores, self.n_cores), np.inf)
        np.fill_diagonal(mat, 0.0)
        for u, v, spec in self.directed_edges():
            mat[u, v] = spec.latency
        return mat


# -- constructors -------------------------------------------------------------

def mesh2d(
    width: int,
    height: Optional[int] = None,
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> Topology:
    """A ``width x height`` 2D mesh (the paper's regular topology)."""
    height = width if height is None else height
    if width <= 0 or height <= 0:
        raise ValueError("mesh dimensions must be positive")
    topo = Topology(width * height, name=f"mesh{width}x{height}")
    spec = LinkSpec(latency=latency, bandwidth=bandwidth)

    def node(x: int, y: int) -> int:
        return y * width + x

    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                topo.add_link(node(x, y), node(x + 1, y), spec)
            if y + 1 < height:
                topo.add_link(node(x, y), node(x, y + 1), spec)
    topo.grid = (width, height)
    return topo


def square_mesh(n_cores: int, **kwargs) -> Topology:
    """The paper's uniform meshes: 8, 64, 256, 1024 cores.

    Non-square counts (like 8) become the most-square 2D factorization
    (8 -> 4x2).
    """
    side = int(math.isqrt(n_cores))
    while side > 1 and n_cores % side:
        side -= 1
    width = n_cores // side
    return mesh2d(width, side, **kwargs)


def ring(
    n_cores: int,
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> Topology:
    """A bidirectional ring."""
    topo = Topology(n_cores, name=f"ring{n_cores}")
    spec = LinkSpec(latency=latency, bandwidth=bandwidth)
    if n_cores == 1:
        return topo
    for u in range(n_cores):
        topo.add_link(u, (u + 1) % n_cores, spec)
    return topo


def torus2d(
    width: int,
    height: Optional[int] = None,
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> Topology:
    """A 2D torus (mesh with wraparound links)."""
    height = width if height is None else height
    if width < 3 or height < 3:
        # Smaller tori degenerate into multi-edges; use a mesh instead.
        return mesh2d(width, height, latency=latency, bandwidth=bandwidth)
    topo = Topology(width * height, name=f"torus{width}x{height}")
    spec = LinkSpec(latency=latency, bandwidth=bandwidth)

    def node(x: int, y: int) -> int:
        return y * width + x

    for y in range(height):
        for x in range(width):
            topo.add_link(node(x, y), node((x + 1) % width, y), spec)
            topo.add_link(node(x, y), node(x, (y + 1) % height), spec)
    return topo


def crossbar(
    n_cores: int,
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> Topology:
    """A fully connected interconnect (every pair one hop apart)."""
    topo = Topology(n_cores, name=f"crossbar{n_cores}")
    spec = LinkSpec(latency=latency, bandwidth=bandwidth)
    for u in range(n_cores):
        for v in range(u + 1, n_cores):
            topo.add_link(u, v, spec)
    return topo


def clustered_mesh(
    n_cores: int,
    n_clusters: int,
    intra_latency: float = 0.5,
    inter_latency: float = 4.0,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> Topology:
    """The paper's clustered architecture.

    Cores are split into ``n_clusters`` equal clusters, each an internal 2D
    mesh with fast links (half a cycle).  Adjacent clusters are joined by
    slow links (4x the base latency, i.e. 4 cycles) between border cores,
    with the clusters themselves arranged in a 2D mesh.
    """
    if n_clusters <= 0 or n_cores % n_clusters:
        raise ValueError("n_cores must be a positive multiple of n_clusters")
    per = n_cores // n_clusters
    topo = Topology(n_cores, name=f"clustered{n_cores}c{n_clusters}")
    intra = LinkSpec(latency=intra_latency, bandwidth=bandwidth)
    inter = LinkSpec(latency=inter_latency, bandwidth=bandwidth)

    # Internal meshes.
    side = int(math.isqrt(per))
    while side > 1 and per % side:
        side -= 1
    width, height = per // side, side

    def node(cluster: int, x: int, y: int) -> int:
        return cluster * per + y * width + x

    for c in range(n_clusters):
        for y in range(height):
            for x in range(width):
                if x + 1 < width:
                    topo.add_link(node(c, x, y), node(c, x + 1, y), intra)
                if y + 1 < height:
                    topo.add_link(node(c, x, y), node(c, x, y + 1), intra)

    # Cluster-level mesh, one inter link between border cores of neighbours.
    cside = int(math.isqrt(n_clusters))
    while cside > 1 and n_clusters % cside:
        cside -= 1
    cwidth = n_clusters // cside

    def cluster_id(cx: int, cy: int) -> int:
        return cy * cwidth + cx

    for cy in range(n_clusters // cwidth):
        for cx in range(cwidth):
            c = cluster_id(cx, cy)
            if cx + 1 < cwidth:
                right = cluster_id(cx + 1, cy)
                topo.add_link(
                    node(c, width - 1, height // 2),
                    node(right, 0, height // 2),
                    inter,
                )
            if cy + 1 < n_clusters // cwidth:
                below = cluster_id(cx, cy + 1)
                topo.add_link(
                    node(c, width // 2, height - 1),
                    node(below, width // 2, 0),
                    inter,
                )
    return topo


def hierarchical_mesh(
    n_cores: int,
    levels: int = 2,
    branching: int = 4,
    base_latency: float = 0.5,
    level_latency_factor: float = 4.0,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> Topology:
    """A hierarchical interconnect (clusters of clusters).

    The paper lists hierarchical organizations among the arbitrary
    networks SiMany handles.  Cores are grouped into clusters of
    ``branching`` members joined by fast local links; cluster heads are
    recursively grouped the same way, each level's links
    ``level_latency_factor`` times slower than the previous one.
    """
    if levels < 1 or branching < 2:
        raise ValueError("need levels >= 1 and branching >= 2")
    if n_cores < branching:
        raise ValueError("need at least one full bottom-level cluster")
    topo = Topology(n_cores, name=f"hier{n_cores}l{levels}")

    # Level 0: ring-connected clusters of `branching` cores.
    members = list(range(n_cores))
    latency = base_latency
    for level in range(levels):
        spec = LinkSpec(latency=latency, bandwidth=bandwidth)
        heads = []
        for start in range(0, len(members), branching):
            cluster = members[start:start + branching]
            for a, b in zip(cluster, cluster[1:]):
                topo.add_link(a, b, spec)
            if len(cluster) > 2:
                topo.add_link(cluster[-1], cluster[0], spec)
            heads.append(cluster[0])
        if len(heads) <= 1:
            members = heads
            break
        members = heads
        latency *= level_latency_factor
    # Join whatever heads remain at the top with the slowest links.
    if len(members) > 1:
        spec = LinkSpec(latency=latency, bandwidth=bandwidth)
        for a, b in zip(members, members[1:]):
            topo.add_link(a, b, spec)
        if len(members) > 2:
            topo.add_link(members[-1], members[0], spec)
    return topo


def from_adjacency(
    matrix: Sequence[Sequence[float]],
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
    name: str = "adjacency",
) -> Topology:
    """Build a topology from an adjacency matrix (the paper's config format).

    Nonzero entries denote links; entries other than 1 are taken as per-link
    latencies, so a matrix can carry heterogeneous link speeds directly.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if not np.allclose(mat, mat.T):
        raise ValueError("adjacency matrix must be symmetric (undirected links)")
    n = mat.shape[0]
    topo = Topology(n, name=name)
    for u in range(n):
        for v in range(u + 1, n):
            w = mat[u, v]
            if w:
                lat = latency if w == 1 else float(w)
                topo.add_link(u, v, LinkSpec(latency=lat, bandwidth=bandwidth))
    return topo


def to_networkx(topo: Topology):
    """Export to a ``networkx.Graph`` (latency as edge weight)."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(topo.n_cores))
    for u, v, spec in topo.edges():
        graph.add_edge(u, v, weight=spec.latency, bandwidth=spec.bandwidth)
    return graph
