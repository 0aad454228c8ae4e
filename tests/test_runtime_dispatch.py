"""Unit and integration tests for task-dispatch policies."""

import dataclasses

import pytest

from repro.arch import build_machine, polymorphic_shared, shared_mesh
from repro.core.task import TaskGroup
from repro.network.link import LinkSpec
from repro.network.topology import Topology
from repro.runtime.dispatch import (
    DISPATCH_POLICIES,
    LatencyAwareDispatch,
    OccupancyDispatch,
    RandomDispatch,
    SpeedAwareDispatch,
    make_dispatch,
)


class _FakeCore:
    def __init__(self, speed):
        self.speed_factor = speed


class _FakeMachine:
    def __init__(self, speeds, topo=None):
        self.cores = [_FakeCore(s) for s in speeds]
        self.topo = topo


class TestFactory:
    def test_all_policies_constructible(self):
        for name in DISPATCH_POLICIES:
            policy = make_dispatch(name)
            assert policy.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_dispatch("psychic")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LatencyAwareDispatch(latency_weight=-1.0)


class TestOccupancy:
    def test_picks_least_loaded(self):
        policy = OccupancyDispatch()
        assert policy.pick(0, {1: 3, 2: 0, 3: 2}, cursor=0, capacity=4) == 2

    def test_none_when_all_full(self):
        policy = OccupancyDispatch()
        assert policy.pick(0, {1: 4, 2: 5}, cursor=0, capacity=4) is None

    def test_none_without_neighbors(self):
        policy = OccupancyDispatch()
        assert policy.pick(0, {}, cursor=0, capacity=4) is None

    def test_cursor_breaks_ties(self):
        policy = OccupancyDispatch()
        picks = {policy.pick(0, {1: 0, 2: 0}, cursor=c, capacity=4)
                 for c in range(2)}
        assert picks == {1, 2}


class TestSpeedAware:
    def test_prefers_fast_core_at_equal_occupancy(self):
        policy = SpeedAwareDispatch()
        policy.machine = _FakeMachine([1.0, 2.0, 2.0 / 3.0])
        # Neighbour 1 is 2x slower, neighbour 2 is 1.5x faster.
        assert policy.pick(0, {1: 1, 2: 1}, cursor=0, capacity=4) == 2

    def test_slow_core_wins_when_much_emptier(self):
        policy = SpeedAwareDispatch()
        policy.machine = _FakeMachine([1.0, 2.0, 2.0 / 3.0])
        # (0+1)*2.0 = 2.0 vs (3+1)*(2/3) = 2.67: the empty slow core wins.
        assert policy.pick(0, {1: 0, 2: 3}, cursor=0, capacity=4) == 1


class TestLatencyAware:
    def _topo(self):
        topo = Topology(3)
        topo.add_link(0, 1, LinkSpec(latency=0.5))   # intra-cluster
        topo.add_link(0, 2, LinkSpec(latency=4.0))   # inter-cluster
        return topo

    def test_prefers_near_link_at_equal_occupancy(self):
        policy = LatencyAwareDispatch(latency_weight=0.5)
        policy.machine = _FakeMachine([1.0] * 3, topo=self._topo())
        assert policy.pick(0, {1: 2, 2: 2}, cursor=0, capacity=4) == 1

    def test_far_core_wins_when_much_emptier(self):
        policy = LatencyAwareDispatch(latency_weight=0.5)
        policy.machine = _FakeMachine([1.0] * 3, topo=self._topo())
        # 3 + 0.25 = 3.25 vs 0 + 2.0 = 2.0: the empty far core wins.
        assert policy.pick(0, {1: 3, 2: 0}, cursor=0, capacity=4) == 2


class TestRandom:
    def test_deterministic_given_seed(self):
        a = RandomDispatch(seed=3)
        b = RandomDispatch(seed=3)
        proxies = {1: 0, 2: 0, 3: 0}
        assert [a.pick(0, proxies, 0, 4) for _ in range(20)] == [
            b.pick(0, proxies, 0, 4) for _ in range(20)
        ]

    def test_respects_capacity(self):
        policy = RandomDispatch(seed=0)
        assert policy.pick(0, {1: 9}, cursor=0, capacity=4) is None


class TestEndToEnd:
    @pytest.mark.parametrize("dispatch", DISPATCH_POLICIES)
    def test_all_policies_run_workloads(self, dispatch):
        from repro.workloads import get_workload

        cfg = dataclasses.replace(shared_mesh(8), dispatch=dispatch)
        workload = get_workload("octree", scale="tiny", seed=0)
        machine = build_machine(cfg)
        result = machine.run(workload.root)
        workload.verify(result["output"])

    def test_speed_aware_helps_polymorphic(self):
        """The paper's future-work claim: heterogeneity-aware scheduling
        substantially improves polymorphic-mesh results."""
        from repro.workloads import get_workload

        vtimes = {}
        for dispatch in ("occupancy", "speed_aware"):
            cfg = dataclasses.replace(polymorphic_shared(64),
                                      dispatch=dispatch)
            workload = get_workload("octree", scale="small", seed=0)
            machine = build_machine(cfg)
            vtimes[dispatch] = machine.run(workload.root)["work_vtime"]
        assert vtimes["speed_aware"] < vtimes["occupancy"]

    def test_speed_aware_neutral_on_uniform_mesh(self):
        """On homogeneous cores, speed-aware dispatch degenerates to the
        occupancy policy (identical decisions)."""
        from repro.workloads import get_workload

        vtimes = {}
        for dispatch in ("occupancy", "speed_aware"):
            cfg = dataclasses.replace(shared_mesh(16), dispatch=dispatch)
            workload = get_workload("quicksort", scale="tiny", seed=0)
            machine = build_machine(cfg)
            vtimes[dispatch] = machine.run(workload.root)["work_vtime"]
        assert vtimes["speed_aware"] == pytest.approx(vtimes["occupancy"])
