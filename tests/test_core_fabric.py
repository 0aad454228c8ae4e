"""Unit tests for the virtual-time fabric (spatial sync bookkeeping)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fabric import VirtualTimeFabric, exact_shadow_fixpoint
from repro.network.topology import (from_adjacency, mesh2d, ring,
                                    square_mesh, torus2d)

INF = math.inf


def make_fabric(topo=None, T=100.0, shadow="exact", hook=None):
    return VirtualTimeFabric(
        topo or mesh2d(3, 3), drift_bound=T, shadow=shadow,
        on_publish_increase=hook,
    )


class TestClockBasics:
    def test_invalid_drift_rejected(self):
        with pytest.raises(ValueError):
            make_fabric(T=0.0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            make_fabric(shadow="weird")

    def test_activation_sets_vtime(self):
        fabric = make_fabric()
        fabric.set_active(0, 42.0)
        assert fabric.active[0]
        assert fabric.vtime[0] == 42.0
        assert fabric.max_vtime == 42.0

    def test_double_activation_rejected(self):
        fabric = make_fabric()
        fabric.set_active(0, 0.0)
        with pytest.raises(RuntimeError):
            fabric.set_active(0, 1.0)

    def test_idle_without_active_rejected(self):
        fabric = make_fabric()
        with pytest.raises(RuntimeError):
            fabric.set_idle(0)

    def test_advance_monotone(self):
        fabric = make_fabric()
        fabric.set_active(0, 10.0)
        fabric.advance(0, 20.0)
        with pytest.raises(ValueError):
            fabric.advance(0, 5.0)

    def test_advance_idle_rejected(self):
        fabric = make_fabric()
        with pytest.raises(RuntimeError):
            fabric.advance(0, 5.0)

    def test_advance_noop_same_time(self):
        fabric = make_fabric()
        fabric.set_active(0, 10.0)
        fabric.advance(0, 10.0)
        assert fabric.vtime[0] == 10.0


class TestDriftRule:
    def test_lone_active_core_unconstrained_without_neighbors_active(self):
        # With shadow time, idle neighbours publish min+T, so a lone core
        # at the start has floor = its own time + T (through shadows).
        fabric = make_fabric()
        fabric.set_active(4, 0.0)  # center of the 3x3 mesh
        assert fabric.drift_ok(4)

    def test_stall_when_ahead_of_neighbor(self):
        fabric = make_fabric(shadow="off")
        fabric.set_active(0, 0.0)
        fabric.set_active(1, 0.0)
        fabric.advance(0, 150.0)
        assert not fabric.drift_ok(0)  # 150 > 0 + 100
        assert fabric.drift_ok(1)

    def test_exactly_at_bound_ok(self):
        fabric = make_fabric(shadow="off")
        fabric.set_active(0, 0.0)
        fabric.set_active(1, 0.0)
        fabric.advance(0, 100.0)
        assert fabric.drift_ok(0)

    def test_unstall_when_neighbor_catches_up(self):
        fabric = make_fabric(shadow="off")
        fabric.set_active(0, 0.0)
        fabric.set_active(1, 0.0)
        fabric.advance(0, 150.0)
        assert not fabric.drift_ok(0)
        fabric.advance(1, 60.0)
        assert fabric.drift_ok(0)

    def test_idle_core_always_ok(self):
        fabric = make_fabric()
        assert fabric.drift_ok(3)

    def test_floor_is_most_late_neighbor(self):
        fabric = make_fabric(shadow="off", topo=mesh2d(3, 1))
        fabric.set_active(0, 30.0)
        fabric.set_active(1, 0.0)
        fabric.set_active(2, 70.0)
        assert fabric.neighbor_floor(1) == 30.0
        assert fabric.floor(1) == 30.0

    def test_publish_hook_called(self):
        seen = []
        fabric = make_fabric(hook=seen.append, shadow="off")
        fabric.set_active(0, 0.0)
        fabric.advance(0, 10.0)
        assert 0 in seen


class TestBirthLedger:
    def test_birth_constrains_floor(self):
        fabric = make_fabric(shadow="off", topo=mesh2d(2, 1))
        fabric.set_active(0, 0.0)
        fabric.set_active(1, 0.0)
        fabric.advance(0, 50.0)
        fabric.add_birth(0, 10.0)
        fabric.advance(1, 60.0)
        assert fabric.floor(0) == 10.0
        fabric.advance(0, 120.0)
        assert not fabric.drift_ok(0)  # 120 > 10 + 100
        fabric.remove_birth(0, 10.0)
        assert fabric.drift_ok(0)

    def test_duplicate_birth_counts(self):
        fabric = make_fabric()
        fabric.add_birth(0, 5.0)
        fabric.add_birth(0, 5.0)
        fabric.remove_birth(0, 5.0)
        assert fabric.births_min(0) == 5.0
        fabric.remove_birth(0, 5.0)
        assert fabric.births_min(0) == INF

    def test_remove_unknown_birth_rejected(self):
        fabric = make_fabric()
        with pytest.raises(RuntimeError):
            fabric.remove_birth(0, 1.0)

    def test_births_min_tracks_minimum(self):
        fabric = make_fabric()
        fabric.add_birth(0, 30.0)
        fabric.add_birth(0, 10.0)
        fabric.add_birth(0, 20.0)
        assert fabric.births_min(0) == 10.0
        fabric.remove_birth(0, 10.0)
        assert fabric.births_min(0) == 20.0


class TestShadowTime:
    def test_exact_shadow_is_distance_scaled(self):
        """shadow(i) = min over active a of (vtime(a) + T * hops)."""
        fabric = make_fabric(topo=mesh2d(4, 1), T=100.0)
        fabric.set_active(0, 1000.0)
        snapshot = fabric.snapshot()
        assert snapshot["published"][1] == 1100.0
        assert snapshot["published"][2] == 1200.0
        assert snapshot["published"][3] == 1300.0

    def test_exact_shadow_two_sources(self):
        fabric = make_fabric(topo=mesh2d(5, 1), T=10.0)
        fabric.set_active(0, 0.0)
        fabric.set_active(4, 100.0)
        published = fabric.snapshot()["published"]
        assert published[1] == 10.0
        assert published[2] == 20.0
        assert published[3] == 30.0  # min(0+30, 100+10)

    def test_non_connected_sets_problem_solved(self):
        """Figure 2: idle cores between two active sets propagate time."""
        fabric = make_fabric(topo=mesh2d(5, 1), T=100.0)
        fabric.set_active(0, 0.0)
        fabric.set_active(4, 0.0)
        fabric.advance(0, 500.0)
        # Core 4 sees core 3's shadow; with core 0 at 500 and itself at 0,
        # shadow(3) = min(500+..., 0+100) from core 4's own publication.
        assert fabric.neighbor_floor(4) <= 100.0 + 100.0
        # After core 4 advances, the bridge shadows rise accordingly.
        fabric.advance(4, 400.0)
        assert fabric.drift_ok(4)

    def test_shadow_disabled_publishes_inf(self):
        fabric = make_fabric(shadow="off")
        fabric.set_active(0, 5.0)
        fabric.set_idle(0)
        assert math.isinf(fabric.published[0])

    def test_fast_mode_monotone_published(self):
        fabric = make_fabric(shadow="fast", topo=mesh2d(3, 1))
        fabric.set_active(0, 0.0)
        fabric.advance(0, 50.0)
        fabric.set_idle(0)
        p_after_idle = fabric.published[0]
        assert p_after_idle >= 50.0
        fabric.set_active(0, 20.0)  # reactivation in the past
        assert fabric.published[0] >= p_after_idle  # never regresses

    def test_fast_mode_relaxation_terminates_without_anchor(self):
        """The mutual-amplification loop between idle cores must not hang."""
        fabric = make_fabric(shadow="fast", topo=mesh2d(4, 1), T=10.0)
        fabric.set_active(0, 0.0)
        fabric.set_active(1, 0.0)
        fabric.set_active(2, 0.0)
        fabric.set_idle(1)
        fabric.set_idle(2)
        # Core 0 advancing triggers relaxation into the idle pocket {1, 2}.
        for t in range(1, 50):
            fabric.advance(0, float(t * 10))
        assert fabric.published[1] <= fabric.max_vtime + fabric.T + 1e-9

    def test_refresh_shadows_restores_exact_fixpoint(self):
        fabric = make_fabric(shadow="fast", topo=mesh2d(4, 1), T=100.0)
        fabric.set_active(0, 1000.0)
        fabric.refresh_shadows()
        assert fabric.published[1] == 1100.0
        assert fabric.published[3] == 1300.0

    def test_global_bound_value(self):
        fabric = make_fabric(topo=mesh2d(4, 4), T=100.0)
        assert fabric.global_drift_bound() == 6 * 100.0


class TestDriftQuery:
    def test_drift_value(self):
        fabric = make_fabric(shadow="off", topo=mesh2d(2, 1))
        fabric.set_active(0, 0.0)
        fabric.set_active(1, 0.0)
        fabric.advance(0, 80.0)
        assert fabric.drift(0) == pytest.approx(80.0)
        assert fabric.drift(1) == pytest.approx(-80.0)

    def test_drift_unconstrained_is_minus_inf(self):
        fabric = make_fabric(shadow="off", topo=mesh2d(2, 1))
        fabric.set_active(0, 10.0)
        assert fabric.drift(0) == -INF


@given(
    advances=st.lists(
        st.tuples(st.integers(0, 3), st.floats(min_value=0.1, max_value=50.0)),
        min_size=1, max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_exact_shadow_invariant_random_schedules(advances):
    """Exact shadows always equal min over active of (vtime + T*hops)."""
    topo = mesh2d(4, 1)
    fabric = VirtualTimeFabric(topo, drift_bound=10.0, shadow="exact")
    for c in range(2):
        fabric.set_active(c, 0.0)
    for cid, delta in advances:
        cid %= 2
        fabric.advance(cid, fabric.vtime[cid] + delta)
    published = fabric.snapshot()["published"]
    # Independent reference: Bellman-Ford iteration of the local equations
    # pub(active) = vtime, pub(idle) = min over neighbours of pub + T.
    ref = [fabric.vtime[c] if fabric.active[c] else INF for c in range(4)]
    for _ in range(8):
        for i in range(4):
            if fabric.active[i]:
                continue
            nbrs = [j for j in (i - 1, i + 1) if 0 <= j < 4]
            ref[i] = min(ref[j] for j in nbrs) + 10.0
    for idle in (2, 3):
        assert published[idle] == pytest.approx(ref[idle])


def _random_adjacency(n, seed):
    """Symmetric 0/1 matrix, every core linked to one or two random
    others: min degree >= 1, components possibly disconnected."""
    rng = random.Random(seed)
    mat = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in rng.sample([v for v in range(n) if v != u], rng.randint(1, 2)):
            mat[u][v] = mat[v][u] = 1
    return mat


def _with_isolated_core(mat):
    """``mat`` plus one last core that has no link at all."""
    return [row + [0] for row in mat] + [[0] * (len(mat) + 1)]


def _bfs_oracle(neighbors, active, vtime, T):
    """The shadow fixpoint without ``exact_shadow_fixpoint``: for every
    active source a BFS gives each idle core its hop count ``h`` (a wave
    stops at active cores, which publish their own time), the source's
    vtime takes the left-to-right ``+ T`` fold ``h`` times, and each core
    keeps the minimum over sources.  Idle cores no source reaches stay
    ``inf``."""
    n = len(neighbors)
    pub = [vtime[c] if active[c] else INF for c in range(n)]
    for src in range(n):
        if not active[src]:
            continue
        hops = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for x in frontier:
                for j in neighbors[x]:
                    if not active[j] and j not in hops:
                        hops[j] = hops[x] + 1
                        nxt.append(j)
            frontier = nxt
        for c, h in hops.items():
            value = vtime[src]
            for _ in range(h):
                value = value + T
            if value < pub[c]:
                pub[c] = value
    return pub


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("share", [0.05, 0.5, 0.9], ids=["5pc", "50pc", "90pc"])
@pytest.mark.parametrize("topo", [
    square_mesh(64), square_mesh(256), square_mesh(1024), torus2d(8),
    from_adjacency(_random_adjacency(96, 0)),
    from_adjacency(_with_isolated_core(_random_adjacency(96, 0))),
], ids=["mesh64", "mesh256", "mesh1024", "torus8x8", "adjacency96",
        "isolated97"])
def test_refresh_shadows_matches_bfs_oracle(topo, share):
    """A rescue recompute publishes the exact shadow fixpoint bit for bit
    (checked with ``float.hex``) against :func:`_bfs_oracle`, notifies
    exactly the cores whose published time changed, and the coordinator's
    call on numpy planes returns the same list.  Seeded vtimes come from
    a small set, so sources tie; T is not a binary fraction, so per-hop
    accumulation order shows in the bits.  A core with no link is never
    activated: it stays idle and unreachable."""
    n = topo.n_cores
    rng = random.Random(n + int(share * 100))
    T = 100.0 / 3.0
    notified = []
    fabric = make_fabric(topo, T=T, shadow="fast", hook=notified.append)
    linked = [c for c in range(n) if fabric._neighbors[c]]
    sources = rng.sample(linked, max(1, int(n * share)))
    starts = [rng.choice((0.0, 12.5, 99.9, 250.0, 1e3 / 7)) for _ in sources]
    # Departed sources leave stale fast-mode shadows for the recompute
    # to raise, where the new sources only lower INF shadows.
    departed = rng.sample(linked, max(1, n // 20))
    for c in departed:
        fabric.set_active(c, 0.0)
    for c in departed:
        fabric.set_idle(c)
    for c, start in zip(sources, starts):
        fabric.set_active(c, start)
    before = list(fabric.published)
    notified.clear()
    fabric.refresh_shadows()
    after = list(fabric.published)
    expected = _bfs_oracle(fabric._neighbors, fabric.active, fabric.vtime, T)
    assert _hex(after) == _hex(expected)
    assert notified == [c for c in range(n) if after[c] != before[c]]
    assert all(after[c] == INF for c in range(n) if not fabric._neighbors[c])
    planes = exact_shadow_fixpoint(
        fabric._neighbors, np.array(fabric.active, dtype=np.int8),
        np.array(fabric.vtime, dtype=np.float64), T)
    assert all(type(v) is float for v in planes)
    assert _hex(planes) == _hex(expected)


@pytest.mark.parametrize("shadow", ["fast", "off"], ids=["shadows", "bare"])
@pytest.mark.parametrize("topo", [mesh2d(3, 3), ring(6), mesh2d(8, 8)],
                         ids=["mesh3x3", "ring6", "mesh8x8"])
def test_floor_cache_stays_a_lower_bound(topo, shadow):
    """The drift-floor cache (docs/internals.md §8) is only ever a lower
    bound: under any interleaving of the fabric's mutators, and of the
    exact-floor store ``SpatialSync.may_run`` makes on a miss,
    ``floor_lb[c] <= floor(c)`` holds for every core after every step.
    Nothing rewrites the cache wholesale, so each mutator has to keep
    the bound valid on its own."""
    n = topo.n_cores
    # The last two cores play boundary proxies (sharded backend): they
    # are only ever anchored, never scheduled.
    owned, proxies = range(n - 2), (n - 2, n - 1)
    for seed in range(20):
        rng = random.Random(seed)
        fabric = make_fabric(topo, T=rng.choice((10.0, 100.0)),
                             shadow=shadow)
        lb = fabric._floor_lb
        births = []
        now = 0.0
        for step in range(250):
            now += rng.uniform(0.0, 20.0)
            t = max(0.0, now + rng.uniform(-150.0, 150.0))
            c = rng.choice(owned)
            op = rng.randrange(9)
            if op == 0 and not fabric.active[c]:
                fabric.set_active(c, t)
            elif op == 1 and fabric.active[c]:
                fabric.set_idle(c)
            elif op == 2 and fabric.active[c]:
                fabric.advance(c, fabric.vtime[c] + rng.uniform(0.0, 60.0))
            elif op == 3:
                fabric.add_birth(c, t)
                births.append((c, t))
            elif op == 4 and births:
                fabric.remove_birth(*births.pop(rng.randrange(len(births))))
            elif op == 5:
                fabric.adopt_shadow(c, t)
            elif op == 6:
                fabric.set_proxy_time(rng.choice(proxies), t)
            elif op == 7 and rng.random() < 0.2:
                fabric.refresh_shadows()
            elif op == 8:
                lb[c] = fabric.floor(c)
            for core in range(n):
                assert lb[core] <= fabric.floor(core), (seed, step, op, core)
