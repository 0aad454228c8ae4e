"""The pruned relax wave equals the unpruned one, event for event.

``VirtualTimeFabric._relax_up`` skips a neighbour's ``min()`` when it
provably cannot rise (the clamped skip limit and the ``_held_by``
witness).  ``_ReferenceFabric`` keeps the wave without either prune;
seeded random operation sequences drive one fabric of each kind and
compare the ``published`` column and the ``on_publish_increase`` call
sequence after every operation.
"""

import random

import pytest

from repro.core.fabric import VirtualTimeFabric
from repro.network.topology import mesh2d


class _ReferenceFabric(VirtualTimeFabric):
    def _relax_up(self, cid):
        tel = self.telemetry
        if tel is not None:
            tel.relax_waves[cid] += 1
        pub = self.published
        active = self.active
        neighbors = self._neighbors
        getter = pub.__getitem__
        notify = self.on_publish_increase
        T = self.T
        ceiling = self.max_vtime + T
        stack = [cid]
        while stack:
            x = stack.pop()
            limit = pub[x] + T
            for j in neighbors[x]:
                if active[j]:
                    continue
                if pub[j] >= limit:
                    continue
                cand = min(map(getter, neighbors[j]))
                cand = cand + T
                if cand > ceiling:
                    cand = ceiling
                if cand > pub[j]:
                    pub[j] = cand
                    if notify is not None:
                        notify(j)
                    stack.append(j)


def _first_neighbour(fabric):
    fabric._held_by[:] = [nbrs[0] for nbrs in fabric._neighbors]


def _highest_neighbour(fabric):
    pub = fabric.published
    fabric._held_by[:] = [max(nbrs, key=pub.__getitem__)
                          for nbrs in fabric._neighbors]


def _pair(width, T, mode):
    calls = ([], [])
    fabrics = tuple(
        cls(mesh2d(width), drift_bound=T, shadow=mode,
            on_publish_increase=log.append)
        for cls, log in zip((VirtualTimeFabric, _ReferenceFabric), calls))
    return fabrics, calls


def _drive(width, T, seed, n_ops, mode="fast", corrupt=None):
    """Apply one seeded operation sequence to both fabrics in lockstep."""
    rng = random.Random(seed)
    (new, ref), (new_calls, ref_calls) = _pair(width, T, mode)
    n = width * width
    clock = 0.0
    for step in range(n_ops):
        if corrupt is not None and step % 25 == 0:
            corrupt(new)
        active = [c for c in range(n) if new.active[c]]
        idle = [c for c in range(n) if not new.active[c]]
        roll = rng.random()
        if idle and (roll < 0.25 or not active):
            op = ("set_active", rng.choice(idle),
                  clock + rng.uniform(-2 * T, T))
        elif roll < 0.4:
            op = ("set_idle", rng.choice(active))
        elif roll < 0.5:
            op = ("add_birth", rng.randrange(n), clock + rng.uniform(-T, T))
        elif roll < 0.52:
            op = ("refresh_shadows",)
        else:
            c = rng.choice(active)
            op = ("advance", c, new.vtime[c] + rng.expovariate(1 / T))
        clock += rng.uniform(0, T / 4)
        for fabric in (new, ref):
            getattr(fabric, op[0])(*op[1:])
        assert list(new.published) == list(ref.published), (step, op)
        assert new_calls == ref_calls, (step, op)
    return new_calls


@pytest.mark.parametrize("T", [1.0, 50.0, 1000.0])
@pytest.mark.parametrize("width,n_ops", [(8, 600), (32, 400)])
def test_pruned_wave_matches_reference(width, T, n_ops):
    for seed in range(3):
        calls = _drive(width, T, seed, n_ops)
        assert calls  # the sequence exercised publish increases


@pytest.mark.parametrize("corrupt", [_first_neighbour, _highest_neighbour])
@pytest.mark.parametrize("T", [1.0, 50.0])
def test_wrong_witness_changes_nothing(corrupt, T):
    """Any neighbour bounds the minimum, so a wrong witness only costs a
    ``min()``: resetting every witness mid-run keeps the bits."""
    for seed in range(2):
        _drive(8, T, seed, 600, corrupt=corrupt)
        _drive(32, T, seed, 300, corrupt=corrupt)


def test_exact_mode_waves_match_reference():
    _drive(8, 50.0, 0, 400, mode="exact")


def test_witness_is_not_checkpointed():
    from repro.checkpoint.state import _capture_fabric
    (fabric, _), _ = _pair(4, 10.0, "fast")
    fabric.set_active(5, 3.0)
    before = _capture_fabric(fabric)
    _highest_neighbour(fabric)
    assert _capture_fabric(fabric) == before
