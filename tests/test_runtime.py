"""Unit tests for the task run-time: probes, groups/join, locks."""

import pytest

from repro.arch import build_machine, dist_mesh, shared_mesh
from repro.core.errors import ProtocolError
from repro.core.messages import MsgKind
from repro.core.task import TaskGroup
from repro.runtime.locks import SimLock

from conftest import fanout_root


class TestConditionalSpawning:
    def test_single_core_always_inline(self, single):
        single.run(fanout_root(10))
        assert single.stats.tasks_run_inline == 10
        assert single.stats.tasks_spawned_remote == 0

    def test_spawns_go_to_neighbors(self, mesh16):
        placements = []

        def child(ctx):
            placements.append(ctx.core_id)
            yield ctx.compute(cycles=10_000)

        def root(ctx):
            group = TaskGroup()
            for _ in range(4):
                yield from ctx.spawn_or_inline(child, group=group)
            yield ctx.join(group)

        mesh16.run(root)
        # Tasks dispatched from core 0 land only on its topological
        # neighbours (dispatch is to neighbours only) or run inline.
        neighbor_set = set(mesh16.topo.neighbors(0)) | {0}
        assert placements
        assert set(placements) <= neighbor_set

    def test_queue_capacity_limits_acceptance(self):
        machine = build_machine(shared_mesh(2))
        capacity = machine.params.queue_capacity

        def child(ctx):
            yield ctx.compute(cycles=100_000)

        def root(ctx):
            group = TaskGroup()
            for _ in range(20):
                yield from ctx.spawn_or_inline(child, group=group)
            yield ctx.join(group)

        machine.run(root)
        nacks = machine.stats.messages_by_kind[MsgKind.PROBE_NACK]
        inline = machine.stats.tasks_run_inline
        assert inline > 0  # overload forced sequential execution

    def test_probe_messages_balance(self, mesh8):
        mesh8.run(fanout_root(12))
        counts = mesh8.stats.messages_by_kind
        assert counts[MsgKind.PROBE] == (
            counts[MsgKind.PROBE_ACK] + counts[MsgKind.PROBE_NACK]
        )

    def test_spawn_costs_time(self, mesh8):
        """A remote spawn costs at least the probe round trip."""

        def child(ctx):
            yield ctx.compute(cycles=1)

        def root(ctx):
            group = TaskGroup()
            t0 = yield ctx.now()
            spawned = yield ctx.try_spawn(child, group=group)
            t1 = yield ctx.now()
            yield ctx.join(group)
            return spawned, t1 - t0

        spawned, elapsed = mesh8.run(root)
        assert spawned
        assert elapsed > 2.0  # probe check + round trip


class TestGroupsAndJoin:
    def test_join_empty_group_immediate(self, mesh8):
        def root(ctx):
            group = TaskGroup()
            t0 = yield ctx.now()
            yield ctx.join(group)
            t1 = yield ctx.now()
            return t1 - t0

        assert mesh8.run(root) == 0.0

    def test_join_waits_for_children(self, mesh8):
        def child(ctx):
            yield ctx.compute(cycles=5000)

        def root(ctx):
            group = TaskGroup()
            yield from ctx.spawn_or_inline(child, group=group)
            yield ctx.join(group)
            t = yield ctx.now()
            return t

        assert mesh8.run(root) >= 5000

    def test_join_after_completion_charges_notification_latency(self, mesh8):
        """Fast-path join cannot causally precede the last child's finish."""

        def child(ctx):
            yield ctx.compute(cycles=5000)

        def root(ctx):
            group = TaskGroup()
            yield from ctx.spawn_or_inline(child, group=group)
            # Busy-wait far beyond the child's finish time.
            yield ctx.compute(cycles=20_000)
            t0 = yield ctx.now()
            yield ctx.join(group)
            t1 = yield ctx.now()
            return t0, t1

        t0, t1 = mesh8.run(root)
        assert t1 >= t0  # no time travel

    def test_group_counter_protocol(self):
        group = TaskGroup("g")
        group.register()
        group.register()
        assert group.deregister() == 1
        assert group.deregister() == 0
        with pytest.raises(ProtocolError):
            group.deregister()

    def test_multiple_joiners(self, mesh8):
        def child(ctx):
            yield ctx.compute(cycles=2000)

        def joiner(ctx, group):
            yield ctx.join(group)
            t = yield ctx.now()
            return t

        def root(ctx):
            work = TaskGroup("work")
            waiters = TaskGroup("waiters")
            yield from ctx.spawn_or_inline(child, group=work)
            yield from ctx.spawn_or_inline(joiner, work, group=waiters)
            yield ctx.join(work)
            yield ctx.join(waiters)
            return True

        assert mesh8.run(root)


class TestLocks:
    def test_mutual_exclusion_counter(self, mesh8):
        lock = SimLock("m")
        counter = {"value": 0}

        def worker(ctx):
            for _ in range(10):
                yield ctx.acquire(lock)
                local = counter["value"]
                yield ctx.compute(cycles=50)
                counter["value"] = local + 1
                yield ctx.release(lock)

        def root(ctx):
            group = TaskGroup()
            for _ in range(4):
                yield from ctx.spawn_or_inline(worker, group=group)
            yield ctx.join(group)
            return counter["value"]

        assert mesh8.run(root) == 40
        assert lock.acquisitions == 40
        assert not lock.is_held

    def test_release_by_non_holder_rejected(self, mesh8):
        lock = SimLock()

        def root(ctx):
            yield ctx.release(lock)

        with pytest.raises(ProtocolError):
            mesh8.run(root)

    def test_contention_recorded(self, mesh8):
        lock = SimLock()

        def worker(ctx):
            for _ in range(8):
                yield ctx.acquire(lock)
                # More actions than one scheduling slice (64) so competing
                # workers are scheduled while the lock is held.
                for _ in range(80):
                    yield ctx.compute(cycles=20)
                yield ctx.release(lock)

        def root(ctx):
            group = TaskGroup()
            for _ in range(4):
                yield from ctx.spawn_or_inline(worker, group=group)
            yield ctx.join(group)

        mesh8.run(root)
        assert lock.acquisitions == 32
        assert lock.contended_acquisitions > 0

    def test_homed_lock_protocol(self, mesh8):
        lock = SimLock("homed", home_core=3)
        order = []

        def worker(ctx, k):
            yield ctx.acquire(lock)
            order.append(k)
            yield ctx.compute(cycles=100)
            yield ctx.release(lock)

        def root(ctx):
            group = TaskGroup()
            for k in range(3):
                yield from ctx.spawn_or_inline(worker, k, group=group)
            yield ctx.join(group)
            return order

        result = mesh8.run(root)
        assert sorted(result) == [0, 1, 2]
        assert not lock.is_held

    def test_lock_serializes_virtual_time_under_conservative(self):
        """With zero drift (conservative sync), critical sections are
        totally ordered in virtual time.  Under spatial sync they may
        overlap in virtual time by up to the drift bound — that is the
        accuracy/speed trade the paper makes — so the strict property is
        asserted on the conservative referee only."""
        import dataclasses

        cfg = dataclasses.replace(shared_mesh(8), sync="conservative")
        machine = build_machine(cfg)
        lock = SimLock()
        spans = []

        def worker(ctx):
            yield ctx.acquire(lock)
            t0 = yield ctx.now()
            yield ctx.compute(cycles=500)
            t1 = yield ctx.now()
            spans.append((t0, t1))
            yield ctx.release(lock)

        def root(ctx):
            group = TaskGroup()
            for _ in range(4):
                yield from ctx.spawn_or_inline(worker, group=group)
            yield ctx.join(group)

        machine.run(root)
        spans.sort()
        assert len(spans) == 4
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert b0 >= a1 - 1e-9  # critical sections do not overlap

    def test_lock_sections_overlap_bounded_under_spatial(self, mesh8):
        """Under spatial sync, any virtual-time overlap of uncontended
        critical sections stays within the global drift bound."""
        lock = SimLock()
        spans = []

        def worker(ctx):
            yield ctx.acquire(lock)
            t0 = yield ctx.now()
            yield ctx.compute(cycles=500)
            t1 = yield ctx.now()
            spans.append((t0, t1))
            yield ctx.release(lock)

        def root(ctx):
            group = TaskGroup()
            for _ in range(4):
                yield from ctx.spawn_or_inline(worker, group=group)
            yield ctx.join(group)

        mesh8.run(root)
        bound = mesh8.fabric.global_drift_bound() + 500
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 - b0 <= bound


class TestQueueStateProxies:
    def test_queue_state_broadcast_happens(self, mesh8):
        mesh8.run(fanout_root(10))
        assert mesh8.stats.messages_by_kind[MsgKind.QUEUE_STATE] > 0

    def test_proxies_updated(self, mesh8):
        mesh8.run(fanout_root(10))
        runtime = mesh8.runtime
        built = [cid for cid in range(mesh8.n_cores)
                 if runtime._proxy[cid] is not None]
        assert 0 in built  # the root's core spawned
        # Every proxy map is built whole, over exactly its core's
        # neighbours in neighbour order; gossip then updates it in place.
        for cid in built:
            assert tuple(runtime._proxy[cid]) == mesh8.topo.neighbors(cid)
        # A core that never spawned nor heard gossip reads all zeros.
        for cid in set(range(mesh8.n_cores)) - set(built):
            assert runtime._proxies(cid) == dict.fromkeys(
                mesh8.topo.neighbors(cid), 0)
