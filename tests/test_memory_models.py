"""Unit tests for caches, coherence and the two memory models."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import build_machine, dist_mesh, shared_mesh
from repro.core.actions import CellAccess, MemAccess
from repro.memory.cache import LruCache
from repro.memory.cells import Cell, Link
from repro.memory.coherence import CoherenceModel
from repro.memory.sharedmem import SharedMemoryModel


class TestLruCache:
    def test_miss_then_hit(self):
        cache = LruCache(4, hit_latency=1.0, miss_latency=10.0)
        assert cache.access("a") == 10.0
        assert cache.access("a") == 1.0

    def test_eviction_order(self):
        cache = LruCache(2, 1.0, 10.0)
        cache.access("a")
        cache.access("b")
        cache.access("a")  # refresh a
        cache.access("c")  # evicts b
        assert cache.contains("a")
        assert not cache.contains("b")
        assert cache.contains("c")

    def test_invalidate(self):
        cache = LruCache(4, 1.0, 10.0)
        cache.access("a")
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.access("a") == 10.0

    def test_flush(self):
        cache = LruCache(4, 1.0, 10.0)
        cache.access("a")
        cache.flush()
        assert len(cache) == 0

    def test_stats(self):
        cache = LruCache(4, 1.0, 10.0)
        cache.access("a")
        cache.access("a")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LruCache(0, 1.0, 10.0)
        with pytest.raises(ValueError):
            LruCache(4, 10.0, 1.0)  # miss < hit

    @given(keys=st.lists(st.integers(0, 10), min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_capacity_never_exceeded(self, keys):
        cache = LruCache(4, 1.0, 10.0)
        for key in keys:
            cache.access(key)
            assert len(cache) <= 4


class TestCoherence:
    def test_private_data_free(self):
        model = CoherenceModel()
        assert model.on_read(0, "x") == 0.0
        assert model.on_write(0, "x") == 0.0
        assert model.on_read(0, "x") == 0.0

    def test_dirty_miss_charged(self):
        model = CoherenceModel(dirty_miss_cycles=20.0)
        model.on_write(0, "x")
        assert model.on_read(1, "x") == 20.0
        # Second read by the same core: the line is now shared.
        assert model.on_read(1, "x") == 0.0

    def test_invalidation_scales_with_sharers(self):
        model = CoherenceModel(invalidate_base_cycles=10.0,
                               invalidate_per_sharer_cycles=2.0)
        for reader in range(4):
            model.on_read(reader, "x")
        penalty = model.on_write(0, "x")
        assert penalty == pytest.approx(10.0 + 2.0 * 3)

    def test_write_after_write_same_core_free(self):
        model = CoherenceModel()
        model.on_write(0, "x")
        assert model.on_write(0, "x") == 0.0

    def test_invalidate_hook_called(self):
        dropped = []
        model = CoherenceModel(invalidate_hook=lambda c, o: dropped.append((c, o)))
        model.on_read(1, "x")
        model.on_read(2, "x")
        model.on_write(0, "x")
        assert set(dropped) == {(1, "x"), (2, "x")}

    def test_penalty_aggregates(self):
        model = CoherenceModel()
        model.on_write(1, "x")
        p = model.penalty(0, "x", reads=5, writes=5)
        assert p > 0

    def test_stats(self):
        model = CoherenceModel()
        model.on_write(0, "x")
        model.on_read(1, "x")
        model.on_write(1, "x")
        assert model.stats.dirty_misses == 1
        assert model.stats.invalidation_rounds >= 1
        assert model.tracked_objects == 1

    def test_negative_penalties_rejected(self):
        with pytest.raises(ValueError):
            CoherenceModel(dirty_miss_cycles=-1)


class TestSharedMemoryModel:
    class _Core:
        def __init__(self, cid=0, speed=1.0):
            self.cid = cid
            self.speed_factor = speed

    def test_paper_latencies(self):
        model = SharedMemoryModel()
        assert model.bank_latency == 10.0
        assert model.l1_latency == 1.0

    def test_access_cost(self):
        model = SharedMemoryModel()
        action = MemAccess(reads=4, writes=0, l1_hit_fraction=0.5)
        assert model.access(self._Core(), action) == pytest.approx(2 * 1 + 2 * 10)

    def test_empty_access_free(self):
        model = SharedMemoryModel()
        assert model.access(self._Core(), MemAccess()) == 0.0

    def test_l1_scales_with_core_speed(self):
        model = SharedMemoryModel()
        action = MemAccess(reads=10, l1_hit_fraction=1.0)
        slow = model.access(self._Core(speed=2.0), action)
        fast = model.access(self._Core(speed=1.0), action)
        assert slow == 2 * fast

    def test_coherence_penalty_included(self):
        coherent = SharedMemoryModel(coherence=CoherenceModel())
        core0, core1 = self._Core(0), self._Core(1)
        coherent.access(core0, MemAccess(writes=1, obj="x"))
        with_penalty = coherent.access(core1, MemAccess(reads=1, obj="x"))
        plain = coherent.access(core1, MemAccess(reads=1, obj="y"))
        assert with_penalty > plain

    def test_cells_degenerate_to_bank_access(self):
        model = SharedMemoryModel()
        cell = model.new_cell(data=1)
        cost = model.cell_access(self._Core(), None, CellAccess(cell=cell, mode="r"))
        assert cost == pytest.approx(10.0 + 2.0)


class TestDistributedMemoryModel:
    def test_local_cell_access_is_l2(self, dist8):
        memory = dist8.memory

        def root(ctx):
            cell = memory.new_cell(data="v", home=0)
            t0 = yield ctx.now()
            got = yield ctx.cell(cell, "r")
            t1 = yield ctx.now()
            return got.data, t1 - t0

        data, latency = dist8.run(root)
        assert data == "v"
        assert latency == pytest.approx(10.0)

    def test_remote_cell_moves_ownership(self, dist8):
        memory = dist8.memory

        def root(ctx):
            cell = memory.new_cell(data=0, home=7)
            assert cell.owner == 7
            yield ctx.cell(cell, "rw")
            return cell.owner, cell.moves

        owner, moves = dist8.run(root)
        assert owner == 0  # moved to the requester (root runs on core 0)
        assert moves == 1
        assert dist8.memory.remote_fetches == 1

    def test_remote_read_also_exclusive(self, dist8):
        """Paper: data transfer happens whether the access is read or write."""
        memory = dist8.memory

        def root(ctx):
            cell = memory.new_cell(data=0, home=3)
            yield ctx.cell(cell, "r")
            return cell.owner

        assert dist8.run(root) == 0

    def test_remote_access_slower_than_local(self, dist8):
        memory = dist8.memory

        def root(ctx):
            local = memory.new_cell(data=0, home=0)
            remote = memory.new_cell(data=0, home=7)
            t0 = yield ctx.now()
            yield ctx.cell(local, "r")
            t1 = yield ctx.now()
            yield ctx.cell(remote, "r")
            t2 = yield ctx.now()
            return (t1 - t0), (t2 - t1)

        local_cost, remote_cost = dist8.run(root)
        assert remote_cost > local_cost

    def test_invalid_home_rejected(self, dist8):
        with pytest.raises(ValueError):
            dist8.memory.new_cell(home=99)

    def test_link_dereference(self, dist8):
        memory = dist8.memory

        def root(ctx):
            cell = memory.new_cell(data="x", home=0)
            link = Link(cell)
            got = yield ctx.cell(link, "r")
            return got.data

        assert dist8.run(root) == "x"


class TestCell:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Cell(size=0)

    def test_link_deref(self):
        cell = Cell(data=5)
        assert Link(cell).deref() is cell
