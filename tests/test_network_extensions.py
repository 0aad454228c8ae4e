"""Tests for XY routing and hierarchical topologies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.link import LinkSpec
from repro.network.noc import Noc
from repro.network.routing import RoutingTable, XYRouting
from repro.network.topology import hierarchical_mesh, mesh2d


class TestXYRouting:
    def test_route_shape(self):
        topo = mesh2d(4, 4)
        routing = XYRouting(topo, width=4)
        # 0 (0,0) -> 15 (3,3): X first (0,1,2,3) then Y (7,11,15).
        assert routing.path(0, 15) == (0, 1, 2, 3, 7, 11, 15)

    def test_self_path(self):
        routing = XYRouting(mesh2d(4, 4), width=4)
        assert routing.path(5, 5) == (5,)

    def test_minimal_length(self):
        topo = mesh2d(4, 4)
        xy = XYRouting(topo, width=4)
        shortest = RoutingTable(topo)
        for src in range(16):
            for dst in range(16):
                assert xy.hop_count(src, dst) == shortest.hop_count(src, dst)

    def test_deterministic_shape_differs_from_yx(self):
        routing = XYRouting(mesh2d(4, 4), width=4)
        # XY routes never move in Y before X is resolved.
        path = routing.path(0, 5)
        assert path == (0, 1, 5)

    def test_next_hop_follows_the_xy_path(self):
        routing = XYRouting(mesh2d(4, 4), width=4)
        # 8 (0,2) -> 2 (2,0): the shortest-path tree of core 8 goes up
        # first (next hop 4); XY goes along the row first.
        assert routing.path(8, 2) == (8, 9, 10, 6, 2)
        assert routing.next_hop(8, 2) == 9
        assert routing.next_hop(7, 7) == 7

    def test_latency_is_summed_along_the_xy_path(self):
        topo = mesh2d(2, 2)
        topo.add_link(0, 1, LinkSpec(latency=8.0))  # slow top row
        xy = XYRouting(topo, width=2)
        assert xy.path(0, 3) == (0, 1, 3)
        assert xy.path_latency(0, 3) == 9.0
        assert RoutingTable(topo).path_latency(0, 3) == 2.0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            XYRouting(mesh2d(4, 4), width=3)

    def test_works_with_noc(self):
        topo = mesh2d(4, 4)
        noc = Noc(topo, routing=XYRouting(topo, width=4))
        t = noc.delivery_time(0, 15, 64, 0.0)
        assert t > 0

    @given(src=st.integers(0, 15), dst=st.integers(0, 15))
    @settings(max_examples=60)
    def test_paths_valid(self, src, dst):
        topo = mesh2d(4, 4)
        routing = XYRouting(topo, width=4)
        path = routing.path(src, dst)
        assert path[0] == src and path[-1] == dst
        for u, v in zip(path, path[1:]):
            assert topo.has_link(u, v)


class TestHierarchicalMesh:
    def test_connected(self):
        topo = hierarchical_mesh(64, levels=2, branching=4)
        assert topo.is_connected()
        assert topo.n_cores == 64

    def test_latency_levels(self):
        topo = hierarchical_mesh(64, levels=2, branching=4,
                                 base_latency=0.5, level_latency_factor=4.0)
        latencies = sorted({spec.latency for _, _, spec in topo.edges()})
        assert latencies[0] == 0.5
        assert latencies[-1] > latencies[0]

    def test_single_level(self):
        topo = hierarchical_mesh(8, levels=1, branching=4)
        assert topo.is_connected()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            hierarchical_mesh(8, levels=0)
        with pytest.raises(ValueError):
            hierarchical_mesh(8, branching=1)
        with pytest.raises(ValueError):
            hierarchical_mesh(2, branching=4)

    def test_runs_a_workload(self):
        from repro.core.engine import Machine
        from repro.core.sync import SpatialSync
        from repro.memory.sharedmem import SharedMemoryModel
        from repro.runtime.runtime import Runtime
        from repro.workloads import get_workload

        topo = hierarchical_mesh(16, levels=2, branching=4)
        machine = Machine(topo, SpatialSync())
        machine.attach_memory(SharedMemoryModel())
        machine.attach_runtime(Runtime())
        workload = get_workload("octree", scale="tiny", seed=0)
        result = machine.run(workload.root)
        workload.verify(result["output"])

    @given(
        n=st.sampled_from([8, 16, 32, 64]),
        branching=st.sampled_from([2, 4, 8]),
        levels=st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_always_connected(self, n, branching, levels):
        if n < branching:
            return
        topo = hierarchical_mesh(n, levels=levels, branching=branching)
        assert topo.is_connected()
