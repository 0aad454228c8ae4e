"""Spatial mesh partitioning for the sharded execution backend.

A :class:`Partition` splits the cores of one topology into ``n_shards``
contiguous bands of core ids.  On the row-major meshes used throughout
the paper's evaluation, contiguous id ranges are horizontal bands of
rows, so each shard is a spatially compact region whose only external
coupling is with the bands directly above and below it — exactly the
neighbour structure the drift bound ``T`` localizes.

The partition is pure data (tuples of ints), picklable, and cheap to
ship to spawned worker processes.  It is also the *fence* used by the
semantic shard mode (``ArchConfig.shards > 0``): the run-time system
restricts dispatch, queue-state gossip and steal victims to same-shard
neighbours, and distributed-memory cell homes are remapped into the
creating core's shard (:meth:`Partition.remap_home`).  Fencing is
applied identically on both backends, which is what makes a fenced
serial run and a sharded run of the same configuration bit-identical
(see docs/parallel.md).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..core.errors import SimConfigError
from ..network.topology import Topology


class Partition:
    """A fixed assignment of cores to contiguous shards.

    Attributes:
        n_cores: total cores in the machine.
        n_shards: number of shards.
        owner: tuple mapping core id -> shard id.
        shards: tuple of per-shard core-id tuples (each contiguous,
            ascending).
    """

    def __init__(self, ranges: Sequence[Tuple[int, int]], n_cores: int) -> None:
        self.n_cores = n_cores
        self.n_shards = len(ranges)
        self.shards: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(range(lo, hi)) for lo, hi in ranges)
        owner = [0] * n_cores
        for sid, cores in enumerate(self.shards):
            for cid in cores:
                owner[cid] = sid
        self.owner: Tuple[int, ...] = tuple(owner)
        # Filled in by contiguous_partition (needs the topology).
        self._proxies: Tuple[Tuple[int, ...], ...] = ()
        self._boundary: Tuple[Tuple[int, ...], ...] = ()
        self._peers: Tuple[Tuple[int, ...], ...] = ()

    # -- queries ---------------------------------------------------------
    def owner_of(self, cid: int) -> int:
        """Shard id owning core ``cid``."""
        return self.owner[cid]

    def cores_of(self, sid: int) -> Tuple[int, ...]:
        """Core ids owned by shard ``sid`` (ascending)."""
        return self.shards[sid]

    def proxies_of(self, sid: int) -> Tuple[int, ...]:
        """Remote cores topologically adjacent to shard ``sid``.

        These are the *boundary proxy cores*: a shard worker holds them
        in its machine replica, anchored at the owning worker's
        published virtual time via
        :meth:`~repro.core.fabric.VirtualTimeFabric.set_proxy_time`.
        """
        return self._proxies[sid]

    def boundary_of(self, sid: int) -> Tuple[int, ...]:
        """Cores of shard ``sid`` with at least one out-of-shard
        neighbour; their published times must be shipped to peers at
        every round barrier."""
        return self._boundary[sid]

    def peers_of(self, sid: int) -> Tuple[int, ...]:
        """Shard ids topologically adjacent to shard ``sid``."""
        return self._peers[sid]

    def shard_pairs(self) -> List[Tuple[int, int]]:
        """Adjacent shard pairs ``(s1, s2)`` with ``s1 < s2``; one
        bidirectional channel is created per pair."""
        pairs = []
        for sid in range(self.n_shards):
            for peer in self._peers[sid]:
                if sid < peer:
                    pairs.append((sid, peer))
        return pairs

    def remap_home(self, home: int, creator_cid: int) -> int:
        """Map a distributed-cell home core into the creator's shard.

        Shard mode makes memory placement shard-local so DATA messages
        never cross a shard boundary.  The mapping is a pure function
        of ``(home, creator shard)`` — both backends compute the same
        placement, preserving bit-identity.  Spread is retained by
        indexing the shard's core tuple with the original home id.
        """
        cores = self.shards[self.owner[creator_cid]]
        return cores[home % len(cores)]

    def describe(self) -> str:
        """One-line human-readable summary."""
        sizes = ",".join(str(len(s)) for s in self.shards)
        return (f"partition {self.n_shards} shards over {self.n_cores} "
                f"cores (sizes {sizes})")


def contiguous_partition(topo: Topology, n_shards: int) -> Partition:
    """Split ``topo`` into ``n_shards`` balanced contiguous-id shards.

    Core ids are split into ``n_shards`` ranges whose sizes differ by at
    most one (the first ``n_cores % n_shards`` shards get the extra
    core).  Each shard's induced subgraph must be connected — on a
    row-major mesh this holds whenever each range spans complete or
    consecutive partial rows — otherwise a shard could contain cores
    that only communicate through another worker's region, and the
    boundary-channel graph would no longer match the topology.

    Raises:
        SimConfigError: for invalid shard counts or a disconnected
            shard region.
    """
    n = topo.n_cores
    if n_shards < 1:
        raise SimConfigError(f"need at least 1 shard, got {n_shards}")
    if n_shards > n:
        raise SimConfigError(
            f"cannot split {n} cores into {n_shards} shards")
    base, extra = divmod(n, n_shards)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for sid in range(n_shards):
        hi = lo + base + (1 if sid < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    part = Partition(ranges, n)

    # Derive boundary structure from the topology.
    owner = part.owner
    proxies: List[Tuple[int, ...]] = []
    boundary: List[Tuple[int, ...]] = []
    peers: List[Tuple[int, ...]] = []
    for sid, cores in enumerate(part.shards):
        prox: Dict[int, None] = {}
        bound: Dict[int, None] = {}
        peer: Dict[int, None] = {}
        for cid in cores:
            for j in topo.neighbors(cid):
                if owner[j] != sid:
                    prox[j] = None
                    bound[cid] = None
                    peer[owner[j]] = None
        proxies.append(tuple(sorted(prox)))
        boundary.append(tuple(sorted(bound)))
        peers.append(tuple(sorted(peer)))
    part._proxies = tuple(proxies)
    part._boundary = tuple(boundary)
    part._peers = tuple(peers)

    _validate_connected(topo, part)
    return part


def _validate_connected(topo: Topology, part: Partition) -> None:
    """Every shard's induced subgraph must be connected."""
    for sid, cores in enumerate(part.shards):
        if len(cores) <= 1:
            continue
        members: FrozenSet[int] = frozenset(cores)
        seen = {cores[0]}
        stack = [cores[0]]
        while stack:
            u = stack.pop()
            for v in topo.neighbors(u):
                if v in members and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(cores):
            raise SimConfigError(
                f"shard {sid} is disconnected inside topology "
                f"'{topo.name}': {len(cores) - len(seen)} of its cores "
                f"are unreachable without leaving the shard; choose a "
                f"shard count that yields contiguous regions")
