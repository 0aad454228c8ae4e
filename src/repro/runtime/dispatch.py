"""Task-dispatch policies for conditional spawning.

The paper's run-time picks the neighbour most likely to have a free task
slot, which works well on homogeneous meshes but — as its conclusion notes
— "the results we obtained for the polymorphic and clustered architectures
could be improved substantially with specific scheduling policies that
would take into account the latency and computing power disparity among
cores".  This module implements that future work as pluggable policies:

* ``occupancy``    — the paper's default: least-loaded neighbour;
* ``speed_aware``  — estimated-completion dispatch: a neighbour's queue is
  weighted by its core's speed factor, so a 2x-slower core must be twice
  as idle to win a task (polymorphic meshes);
* ``latency_aware``— occupancy plus a link-latency penalty, biasing
  dispatch toward fast intra-cluster links unless the far side is much
  emptier (clustered meshes);
* ``random``       — seeded uniform choice (a baseline for ablations).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import Machine


class DispatchPolicy:
    """Chooses the probe target among a core's neighbours."""

    name = "base"

    def attach(self, machine: "Machine") -> None:
        self.machine = machine

    def pick(self, cid: int, proxies: Dict[int, int], cursor: int,
             capacity: int) -> Optional[int]:
        """Return the neighbour to probe, or None to run inline.

        ``proxies`` maps each neighbour to its believed queue occupancy;
        ``cursor`` is a rotating tie-break offset.
        """
        raise NotImplementedError

    def _scan(self, proxies: Dict[int, int], cursor: int, capacity: int,
              score) -> Optional[int]:
        """Pick the candidate with the smallest score among those whose
        believed occupancy leaves a free slot."""
        neighbors = list(proxies.keys())
        n = len(neighbors)
        if n == 0:
            return None
        start = cursor % n
        best = None
        best_score = float("inf")
        for i in range(n):
            cand = neighbors[(start + i) % n]
            occ = proxies[cand]
            if occ >= capacity:
                continue
            s = score(cand, occ)
            if s < best_score:
                best = cand
                best_score = s
        return best


class OccupancyDispatch(DispatchPolicy):
    """The paper's default: least believed occupancy wins."""

    name = "occupancy"

    def pick(self, cid, proxies, cursor, capacity):
        return self._scan(proxies, cursor, capacity,
                          lambda cand, occ: occ)


class SpeedAwareDispatch(DispatchPolicy):
    """Estimated-completion dispatch for heterogeneous cores.

    A queue entry on a slow core takes ``speed_factor`` times longer to
    drain, so the effective backlog of a neighbour is
    ``(occupancy + 1) * speed_factor`` — the ``+1`` accounts for the task
    being placed.
    """

    name = "speed_aware"

    def pick(self, cid, proxies, cursor, capacity):
        cores = self.machine.cores
        return self._scan(
            proxies, cursor, capacity,
            lambda cand, occ: (occ + 1) * cores[cand].speed_factor,
        )


class LatencyAwareDispatch(DispatchPolicy):
    """Occupancy with a link-latency penalty for clustered meshes.

    Crossing a slow inter-cluster link costs the spawn round trip and the
    task transfer; a far neighbour must be ``latency_weight`` queue slots
    emptier per extra cycle of link latency to win the task.
    """

    name = "latency_aware"

    def __init__(self, latency_weight: float = 0.5) -> None:
        if latency_weight < 0:
            raise ValueError("latency weight must be non-negative")
        self.latency_weight = latency_weight

    def pick(self, cid, proxies, cursor, capacity):
        topo = self.machine.topo
        weight = self.latency_weight

        def score(cand, occ):
            latency = topo.link_spec(cid, cand).latency
            return occ + weight * latency

        return self._scan(proxies, cursor, capacity, score)


class RandomDispatch(DispatchPolicy):
    """Seeded uniform choice among believed-free neighbours (baseline)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def pick(self, cid, proxies, cursor, capacity):
        candidates = [n for n, occ in proxies.items() if occ < capacity]
        if not candidates:
            return None
        return int(candidates[self._rng.integers(len(candidates))])


#: Every policy ``make_dispatch`` can build, by name.
_DISPATCH = {
    "occupancy": OccupancyDispatch,
    "speed_aware": SpeedAwareDispatch,
    "latency_aware": LatencyAwareDispatch,
    "random": RandomDispatch,
}
DISPATCH_POLICIES = tuple(_DISPATCH)


def make_dispatch(name: str) -> DispatchPolicy:
    """Factory: build a dispatch policy by name, with its default settings."""
    if name not in _DISPATCH:
        raise ValueError(
            f"unknown dispatch policy {name!r}; choose from {sorted(_DISPATCH)}"
        )
    return _DISPATCH[name]()
