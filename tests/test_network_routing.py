"""Unit tests for routing tables."""

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.link import LinkSpec
from repro.network.routing import RoutingTable
from repro.network.topology import (
    Topology,
    clustered_mesh,
    crossbar,
    from_adjacency,
    hierarchical_mesh,
    mesh2d,
    ring,
    square_mesh,
    torus2d,
)


class TestRouting:
    def test_self_route(self):
        routing = RoutingTable(mesh2d(2, 2))
        assert routing.path(1, 1) == (1,)
        assert routing.hop_count(1, 1) == 0
        assert routing.path_latency(1, 1) == 0.0

    def test_neighbor_route(self):
        routing = RoutingTable(mesh2d(2, 2))
        assert routing.path(0, 1) == (0, 1)
        assert routing.hop_count(0, 1) == 1

    def test_mesh_path_is_shortest(self):
        topo = mesh2d(4, 4)
        routing = RoutingTable(topo)
        for src in range(16):
            dist = topo.bfs_distances(src)
            for dst in range(16):
                assert routing.hop_count(src, dst) == dist[dst]

    def test_path_endpoints(self):
        routing = RoutingTable(mesh2d(3, 3))
        path = routing.path(0, 8)
        assert path[0] == 0 and path[-1] == 8

    def test_path_edges_exist(self):
        topo = mesh2d(3, 3)
        routing = RoutingTable(topo)
        path = routing.path(0, 8)
        for u, v in zip(path, path[1:]):
            assert topo.has_link(u, v)

    def test_latency_weighted_routing(self):
        """Routing prefers low-latency detours over direct slow links."""
        topo = Topology(3)
        topo.add_link(0, 2, LinkSpec(latency=10.0))
        topo.add_link(0, 1, LinkSpec(latency=1.0))
        topo.add_link(1, 2, LinkSpec(latency=1.0))
        routing = RoutingTable(topo)
        assert routing.path(0, 2) == (0, 1, 2)
        assert routing.path_latency(0, 2) == 2.0

    def test_clustered_routes_use_inter_links(self):
        topo = clustered_mesh(16, 4, intra_latency=0.5, inter_latency=4.0)
        routing = RoutingTable(topo)
        # Cores 0 and 15 live in different clusters.
        latency = routing.path_latency(0, 15)
        assert latency >= 4.0  # at least one inter-cluster link

    def test_unreachable_raises(self):
        topo = Topology(3)
        topo.add_link(0, 1)
        routing = RoutingTable(topo)
        with pytest.raises(ValueError):
            routing.path(0, 2)

    def test_cache_cleared(self):
        # clear_cache() owns the search state: the per-source trees and
        # the link-row snapshot.  Routes themselves are never retained.
        routing = RoutingTable(ring(6))
        path = routing.path(0, 3)
        assert routing.trees_built == 1
        assert routing._rows is not None
        routing.clear_cache()
        assert routing.trees_built == 0
        assert routing._rows is None
        assert routing.path(0, 3) == path
        assert routing.trees_built == 1

    @given(
        n=st.integers(min_value=2, max_value=30),
        pairs=st.lists(
            st.tuples(st.integers(0, 29), st.integers(0, 29)), min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=30)
    def test_ring_paths_bounded_by_half(self, n, pairs):
        routing = RoutingTable(ring(n))
        for src, dst in pairs:
            src %= n
            dst %= n
            assert routing.hop_count(src, dst) <= n // 2

    @given(n=st.integers(min_value=2, max_value=25))
    @settings(max_examples=20)
    def test_symmetric_hop_counts(self, n):
        routing = RoutingTable(ring(n))
        for src in range(0, n, max(1, n // 5)):
            for dst in range(0, n, max(1, n // 5)):
                assert routing.hop_count(src, dst) == routing.hop_count(dst, src)


# -- reference oracle ---------------------------------------------------------
#
# The resolver RoutingTable replaced: one full Dijkstra per node a route
# passes through, storing first hops, and a hop-by-hop walk from the source
# through each intermediate core's own table.  Kept here, out of ``src/``,
# as the definition the source-tree resolver is compared against.

def _reference_first_hops(topo, src):
    n = topo.n_cores
    dist = [float("inf")] * n
    first = [-1] * n
    dist[src] = 0.0
    heap = [(0.0, src, -1)]
    while heap:
        d, u, f = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u != src and first[u] == -1:
            first[u] = f
        for v in topo.neighbors(u):
            nd = d + topo.link_spec(u, v).latency
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v, v if u == src else f))
    return first


def _reference_path(topo, src, dst, tables):
    """``(path, latency)`` by the hop-by-hop rule; ``tables`` memoizes
    one topology's per-node first-hop tables (and its cheapest link
    latency) across calls."""
    if src == dst:
        return (src,), 0.0
    if "min" not in tables:
        tables["min"] = min(spec.latency for _, _, spec in topo.edges())
    if (topo.has_link(src, dst)
            and topo.link_spec(src, dst).latency <= 2 * tables["min"]):
        nodes = [src, dst]
    else:
        nodes = [src]
        while nodes[-1] != dst:
            cur = nodes[-1]
            if cur not in tables:
                tables[cur] = _reference_first_hops(topo, cur)
            hop = tables[cur][dst]
            if hop < 0:
                raise ValueError(f"no route from {src} to {dst}")
            nodes.append(hop)
            assert len(nodes) <= topo.n_cores, "routing loop"
    total = 0.0
    for u, v in zip(nodes, nodes[1:]):
        total += topo.link_spec(u, v).latency
    return tuple(nodes), total


def _same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def _assert_matches_reference(topo, pairs):
    routing = RoutingTable(topo)
    tables = {}
    for src, dst in pairs:
        path, latency = _reference_path(topo, src, dst, tables)
        assert routing.path(src, dst) == path, (src, dst)
        assert _same_bits(routing.path_latency(src, dst), latency), (src, dst)
    return routing


def _dyadic_adjacency(n: int, seed: int):
    """A connected symmetric matrix with heterogeneous dyadic latencies."""
    rng = random.Random(seed)
    weights = (0.25, 0.5, 1, 2.0, 4.0)
    mat = [[0.0] * n for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        mat[u][v] = mat[v][u] = rng.choice(weights)
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        mat[u][v] = mat[v][u] = rng.choice(weights)
    return mat


_TOPOLOGIES = {
    "mesh4x2": lambda: mesh2d(4, 2),
    "mesh5x3": lambda: mesh2d(5, 3),
    "mesh3x7": lambda: mesh2d(3, 7),
    "mesh8x8": lambda: mesh2d(8, 8),
    "mesh16x16": lambda: mesh2d(16, 16),
    "ring8": lambda: ring(8),
    "ring9": lambda: ring(9),
    "torus4x4": lambda: torus2d(4, 4),
    "torus5x3": lambda: torus2d(5, 3),
    "clustered64c4": lambda: clustered_mesh(64, 4),
    "clustered64c8": lambda: clustered_mesh(64, 8),
    "clustered256c4": lambda: clustered_mesh(256, 4),
    "hier64l2": lambda: hierarchical_mesh(64, levels=2),
    "hier64l3": lambda: hierarchical_mesh(64, levels=3),
    "crossbar8": lambda: crossbar(8),
    "adjacency24": lambda: from_adjacency(_dyadic_adjacency(24, seed=7)),
}


class TestSourceTreeEqualsHopByHop:
    """The source-tree route is the hop-by-hop route, to the bit."""

    @pytest.mark.parametrize("name", sorted(_TOPOLOGIES))
    def test_all_pairs_in_shuffled_order(self, name):
        topo = _TOPOLOGIES[name]()
        n = topo.n_cores
        pairs = [(s, d) for s in range(n) for d in range(n)]
        # Shuffled, so most queries resume a partly grown tree.
        random.Random(1).shuffle(pairs)
        _assert_matches_reference(topo, pairs)

    def test_sampled_pairs_on_the_1024_core_mesh(self):
        rng = random.Random(2)
        pairs = [(rng.randrange(1024), rng.randrange(1024))
                 for _ in range(2000)]
        _assert_matches_reference(square_mesh(1024), pairs)


class TestClosedFormMesh:
    """Uniform meshes route by the grid walk, which is the (distance, id)
    tree path: equal to the hop-by-hop reference, and no tree is grown."""

    @pytest.mark.parametrize("latency", [1.0, 0.3, 0.7, 4.0])
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_all_pairs_equal_reference(self, n, latency):
        topo = square_mesh(n, latency=latency)
        assert topo.grid is not None
        pairs = [(s, d) for s in range(n) for d in range(n)]
        routing = _assert_matches_reference(topo, pairs)
        assert routing.trees_built == 0

    # Latency 1.0 is TestSourceTreeEqualsHopByHop's 1024-core case.
    @pytest.mark.parametrize("latency", [0.3, 0.7, 4.0])
    def test_sampled_pairs_on_the_1024_core_mesh(self, latency):
        rng = random.Random(3)
        pairs = [(rng.randrange(1024), rng.randrange(1024))
                 for _ in range(2000)]
        routing = _assert_matches_reference(
            square_mesh(1024, latency=latency), pairs)
        assert routing.trees_built == 0

    def test_shapes_of_the_walk(self):
        routing = RoutingTable(mesh2d(4, 4))
        assert routing.path(0, 10) == (0, 1, 2, 6, 10)   # down: x first
        assert routing.path(10, 0) == (10, 6, 2, 1, 0)   # up: y first
        assert routing.path(12, 3) == (12, 8, 4, 0, 1, 2, 3)
        assert routing.path(4, 7) == (4, 5, 6, 7)
        assert routing.trees_built == 0

    def test_added_link_makes_the_mesh_a_graph(self):
        topo = mesh2d(4, 4)
        assert topo.grid == (4, 4)
        topo.add_link(0, 15)
        assert topo.grid is None
        routing = RoutingTable(topo)
        assert routing.path(1, 14) == (1, 0, 15, 14)
        assert routing.trees_built == 1
        _assert_matches_reference(
            topo, [(s, d) for s in range(16) for d in range(16)])

    def test_mixed_latencies_search(self):
        topo = mesh2d(3, 3)
        routing = RoutingTable(topo)
        assert routing.path(0, 8) == (0, 1, 2, 5, 8)
        topo.add_link(1, 2, LinkSpec(latency=9.0))   # re-spec one link
        routing.clear_cache()
        assert routing.path_latency(0, 8) == 4.0      # around the slow link
        assert routing.trees_built == 1
        _assert_matches_reference(
            topo, [(s, d) for s in range(9) for d in range(9)])


@st.composite
def _connected_graphs(draw, latencies):
    """(n, [(u, v, latency)]): a random spanning tree plus chords."""
    n = draw(st.integers(2, 12))
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = draw(latencies)
    for _ in range(draw(st.integers(0, 2 * n))):
        u = draw(st.integers(0, n - 2))
        v = draw(st.integers(u + 1, n - 1))
        edges[(u, v)] = draw(latencies)
    return n, [(u, v, lat) for (u, v), lat in edges.items()]


def _build(graph):
    n, edges = graph
    topo = Topology(n)
    for u, v, latency in edges:
        topo.add_link(u, v, LinkSpec(latency=latency))
    return topo


class TestRandomGraphs:
    @given(
        graph=_connected_graphs(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0])),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_dyadic_latencies_equal_reference(self, graph, seed):
        topo = _build(graph)
        n = topo.n_cores
        pairs = [(s, d) for s in range(n) for d in range(n)]
        random.Random(seed).shuffle(pairs)
        _assert_matches_reference(topo, pairs)

    @given(
        graph=_connected_graphs(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_latencies_keep_the_contract(self, graph, seed):
        """Sums that tie only up to rounding may pick another route than
        the hop-by-hop walk; what holds for any latencies: the route is a
        real path, its latency is the left-to-right sum over its links,
        and it is never longer than the reference route."""
        topo = _build(graph)
        n = topo.n_cores
        routing = RoutingTable(topo)
        tables = {}
        pairs = [(s, d) for s in range(n) for d in range(n)]
        random.Random(seed).shuffle(pairs)
        for src, dst in pairs:
            path = routing.path(src, dst)
            assert path[0] == src and path[-1] == dst
            total = 0.0
            for u, v in zip(path, path[1:]):
                total += topo.link_spec(u, v).latency  # KeyError: no link
            assert _same_bits(routing.path_latency(src, dst), total)
            assert total <= _reference_path(topo, src, dst, tables)[1]


class TestResumableTrees:
    """One tree per source, grown only as far as the queries need.

    On a torus: a uniform mesh resolves in closed form and grows none."""

    FAR, NEAR = 36, 18  # 8 and 4 hops from core 0 of an 8x8 torus

    def _fresh(self, dst):
        routing = RoutingTable(torus2d(8, 8))
        return routing.path(0, dst), routing.path_latency(0, dst)

    @pytest.mark.parametrize("order", [(NEAR, FAR), (FAR, NEAR)])
    def test_query_order_does_not_change_answers(self, order):
        routing = RoutingTable(torus2d(8, 8))
        for dst in order:
            got = routing.path(0, dst), routing.path_latency(0, dst)
            assert got == self._fresh(dst)
        assert routing.trees_built == 1

    def test_near_query_stops_early(self):
        routing = RoutingTable(torus2d(8, 8))
        routing.path(0, self.NEAR)
        settled = routing._trees[0][2]
        assert settled[self.NEAR] and not settled[self.FAR]
        assert sum(settled) < 64

    def test_neighbour_traffic_builds_no_tree(self):
        routing = RoutingTable(torus2d(8, 8))
        assert routing.path(9, 10) == (9, 10)
        assert routing.next_hop(9, 10) == 10
        assert routing.trees_built == 0

    def test_next_hop_is_second_node_of_path(self):
        routing = RoutingTable(clustered_mesh(64, 4))
        for src, dst in [(0, 63), (17, 40), (40, 17)]:
            assert routing.next_hop(src, dst) == routing.path(src, dst)[1]
        assert routing.next_hop(5, 5) == 5

    def test_unreachable_then_reachable_on_one_source(self):
        topo = Topology(5)
        topo.add_link(0, 1)
        topo.add_link(1, 2)
        topo.add_link(3, 4)
        routing = RoutingTable(topo)
        with pytest.raises(ValueError):
            routing.path(0, 4)
        assert routing.path(0, 2) == (0, 1, 2)
        with pytest.raises(ValueError):
            routing.path_latency(0, 3)

    def test_clear_cache_picks_up_a_new_link(self):
        topo = ring(12)
        routing = RoutingTable(topo)
        assert routing.path(0, 5) == (0, 1, 2, 3, 4, 5)
        topo.add_link(0, 6)  # shortcut across the ring
        routing.clear_cache()
        assert routing.path(0, 5) == (0, 6, 5)
        assert routing.path_latency(0, 5) == 2.0
