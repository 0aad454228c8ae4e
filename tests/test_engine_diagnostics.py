"""Tests for engine diagnostics: task exceptions, describe(), deadlocks."""

import dataclasses

import pytest

from repro.arch import build_machine, shared_mesh
from repro.core.engine import Machine
from repro.core.errors import SimDeadlock, SimError, TaskError
from repro.core.sync import SyncPolicy
from repro.core.task import TaskGroup
from repro.memory.sharedmem import SharedMemoryModel
from repro.network.topology import mesh2d
from repro.runtime.runtime import Runtime


class TestTaskError:
    def test_wraps_exception_with_context(self):
        def bad(ctx):
            yield ctx.compute(cycles=10)
            raise ValueError("boom")

        machine = build_machine(shared_mesh(4))
        with pytest.raises(TaskError) as err:
            machine.run(bad)
        assert isinstance(err.value.__cause__, ValueError)
        assert err.value.core == 0
        assert err.value.vtime >= 10.0
        assert "boom" in str(err.value)
        assert "bad" in str(err.value)

    def test_spawned_task_exception_also_wrapped(self):
        def child(ctx):
            yield ctx.compute(cycles=5)
            raise RuntimeError("child failed")

        def root(ctx):
            group = TaskGroup()
            yield from ctx.spawn_or_inline(child, group=group)
            yield ctx.join(group)

        machine = build_machine(shared_mesh(4))
        with pytest.raises(TaskError) as err:
            machine.run(root)
        assert "child" in str(err.value)

    def test_sim_errors_not_double_wrapped(self):
        def bad(ctx):
            yield "garbage action"

        machine = build_machine(shared_mesh(4))
        with pytest.raises(SimError) as err:
            machine.run(bad)
        assert not isinstance(err.value, TaskError)


class TestDescribe:
    def test_before_run(self):
        machine = build_machine(shared_mesh(8))
        text = machine.describe()
        assert "8 cores" in text
        assert "spatial" in text
        assert "SharedMemoryModel" in text
        assert "completion" not in text

    def test_after_run(self):
        machine = build_machine(shared_mesh(8))

        def root(ctx):
            yield ctx.compute(cycles=100)

        machine.run(root)
        text = machine.describe()
        assert "completion" in text
        assert "tasks" in text

    def test_polymorphic_factors_shown(self):
        from repro.arch import polymorphic_shared

        machine = build_machine(polymorphic_shared(4))
        text = machine.describe()
        assert "0.66" in text or "2.0" in text

    @pytest.mark.parametrize("sync, bound", [
        ("spatial", " (T=100)"),
        ("conservative", ""),
        ("quantum", " (quantum=100)"),
        ("bounded_slack", " (slack=100)"),
        ("laxp2p", " (slack=100)"),
        ("unbounded", ""),
    ])
    def test_sync_bound_shown(self, sync, bound):
        # The banner `repro run --sync NAME` prints: every policy states
        # its bound, or none when it has no single number.
        machine = build_machine(dataclasses.replace(
            shared_mesh(4), sync=sync))
        assert f"  sync policy     : {sync}{bound}\n" in machine.describe()


class TestDeadlockDiagnostics:
    def test_diagnostics_structure(self):
        def root(ctx):
            yield ctx.recv(tag="never")

        machine = build_machine(shared_mesh(4))
        with pytest.raises(SimDeadlock) as err:
            machine.run(root)
        diag = err.value.diagnostics
        assert diag["live_tasks"] == 1
        assert isinstance(diag["stalled_cores"], list)
        assert isinstance(diag["cores"], dict)

    def test_no_progress_after_three_rescues(self):
        # A policy that admits nothing: core 1 drift-stalls on the first
        # pass and again after each rescue re-queues it, so the serial
        # loop never runs out of stalled cores to retry; the third pass
        # in a row without progress is the deadlock.
        class RefuseAll(SyncPolicy):
            name = "refuse_all"

            def may_run(self, core):
                return False

        machine = Machine(mesh2d(2, 1), RefuseAll())
        machine.attach_memory(SharedMemoryModel())
        machine.attach_runtime(Runtime())

        def root(ctx):
            yield ctx.compute(cycles=1)

        with pytest.raises(SimDeadlock) as err:
            machine.run(root, root_core=1)
        diag = err.value.diagnostics
        assert diag["live_tasks"] == 1
        assert diag["stalled_cores"] == [1]
        assert diag["cores"][1]["stalled"]
        assert machine.stats.drift_stalls == 3
        assert machine.stats.actions == 0
