"""Tests for partial simulation (stop_at_vtime) and NoC hotspot analysis."""

import pytest

from repro.arch import build_machine, shared_mesh
from repro.core.task import TaskGroup

from conftest import fanout_root


def long_root(actions=2000, cycles=50.0):
    def root(ctx):
        for _ in range(actions):
            yield ctx.compute(cycles=cycles)
        return "complete"

    return root


class TestStopAtVtime:
    def test_stops_near_threshold(self):
        machine = build_machine(shared_mesh(4))
        result = machine.run(long_root(), stop_at_vtime=10_000.0)
        assert result is None  # root unfinished
        assert machine.live_tasks == 1
        # Stop granularity is one action/slice past the threshold.
        assert 10_000.0 <= machine.fabric.max_vtime < 10_000.0 + 64 * 50 + 100

    def test_completes_if_threshold_beyond_end(self):
        machine = build_machine(shared_mesh(4))
        result = machine.run(long_root(actions=10), stop_at_vtime=1e9)
        assert result == "complete"
        assert machine.live_tasks == 0

    def test_stats_reflect_partial_run(self):
        machine = build_machine(shared_mesh(4))
        machine.run(long_root(), stop_at_vtime=5_000.0)
        assert 0 < machine.stats.actions < 2000
        assert machine.stats.completion_vtime >= 5_000.0

    def test_parallel_workload_stops(self):
        machine = build_machine(shared_mesh(8))
        machine.run(fanout_root(16, child_cycles=100_000.0),
                    stop_at_vtime=50_000.0)
        assert machine.live_tasks > 0

    def test_no_stop_by_default(self):
        machine = build_machine(shared_mesh(4))
        assert machine.run(long_root(actions=5)) == "complete"

