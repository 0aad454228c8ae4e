"""Unit tests for the cycle-level referee."""

import pytest

from repro.cyclelevel import (
    CycleLevelMemory,
    PipelineModel,
    build_cycle_level_machine,
)
from repro.core.actions import MemAccess
from repro.core.sync import ConservativeSync
from repro.workloads import get_workload

from conftest import fanout_root


class TestPipelineModel:
    def test_defaults(self):
        model = PipelineModel()
        assert model.overhead_factor >= 1.0
        assert model.mispredict_penalty == 5.0

    def test_invalid_overhead(self):
        with pytest.raises(ValueError):
            PipelineModel(overhead_factor=0.5)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            PipelineModel(icache_block_cycles=-1)


class TestCycleLevelMemory:
    class _Core:
        def __init__(self, cid=0):
            self.cid = cid
            self.speed_factor = 1.0

    def _attach(self, n=2):
        machine = build_cycle_level_machine(n)
        return machine.memory, machine

    def test_residency_tracking(self):
        memory, _ = self._attach()
        core = self._Core(0)
        first = memory.access(core, MemAccess(reads=1, obj="x"))
        second = memory.access(core, MemAccess(reads=1, obj="x"))
        assert first > second  # first touch missed, second hits

    def test_aggregate_run_hits_after_first(self):
        memory, _ = self._attach()
        core = self._Core(0)
        cost = memory.access(core, MemAccess(reads=10, obj="y"))
        # miss + 9 L1 hits
        assert cost == pytest.approx(10.0 + 9 * 1.0)

    def test_coherence_invalidates_remote_l1(self):
        memory, _ = self._attach()
        a, b = self._Core(0), self._Core(1)
        memory.access(a, MemAccess(reads=1, obj="z"))
        assert memory._l1d[0].contains("z")
        memory.access(b, MemAccess(writes=1, obj="z"))
        assert not memory._l1d[0].contains("z")  # invalidated

    def test_hit_rates_reported(self):
        memory, _ = self._attach()
        core = self._Core(0)
        memory.access(core, MemAccess(reads=5, obj="w"))
        rates = memory.hit_rates()
        assert 0 <= rates[0] <= 1


class TestRefereeMachine:
    def test_conservative_policy(self):
        machine = build_cycle_level_machine(4)
        assert isinstance(machine.policy, ConservativeSync)

    def test_zero_out_of_order(self):
        machine = build_cycle_level_machine(8)
        machine.run(fanout_root(12, child_cycles=500))
        assert machine.stats.out_of_order_msgs == 0

    def test_pipeline_overheads_slow_blocks(self):
        """The referee charges more for the same compute block."""
        from repro.arch import build_machine, shared_mesh_validation

        def root(ctx):
            t0 = yield ctx.now()
            yield ctx.compute(cycles=1000)
            t1 = yield ctx.now()
            return t1 - t0

        referee = build_cycle_level_machine(1)
        simany = build_machine(shared_mesh_validation(1))
        assert referee.run(root) > simany.run(root)

    def test_polymorphic_speed_factors(self):
        machine = build_cycle_level_machine(4, polymorphic=True)
        factors = [c.speed_factor for c in machine.cores]
        assert factors == [2.0, 2.0 / 3.0, 2.0, 2.0 / 3.0]

    def test_runs_validation_benchmarks(self):
        for name in ("quicksort", "spmxv"):
            workload = get_workload(name, scale="tiny", seed=0, memory="shared")
            machine = build_cycle_level_machine(4)
            result = machine.run(workload.root)
            workload.verify(result["output"])

    def test_times_distributed_cell_accesses(self):
        # Cell-based workload code runs unchanged on the referee: every
        # cell is an L1D-resident object with coherence, never remote.
        workload = get_workload("quicksort", scale="tiny", seed=0,
                                memory="distributed")
        machine = build_cycle_level_machine(4)
        result = machine.run(workload.root)
        workload.verify(result["output"])
        assert machine.stats.cell_accesses > 0
        assert machine.stats.remote_cell_accesses == 0

    def test_referee_and_simany_same_output(self):
        """Both simulators must compute identical program results."""
        from repro.arch import build_machine, shared_mesh_validation

        for name in ("quicksort", "connected_components"):
            w1 = get_workload(name, scale="tiny", seed=1, memory="shared")
            w2 = get_workload(name, scale="tiny", seed=1, memory="shared")
            r1 = build_cycle_level_machine(4).run(w1.root)
            r2 = build_machine(shared_mesh_validation(4)).run(w2.root)
            assert r1["output"] == r2["output"]
