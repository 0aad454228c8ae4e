"""Inter-process plumbing for the sharded backend.

Workers exchange three kinds of traffic:

* **the shared round board** — one :class:`multiprocessing.shared_memory`
  block holding numpy *time planes*: double-buffered published times for
  boundary cores, per-core (active, vtime) snapshots for the
  coordinator's exact shadow fixpoint, the fixpoint result itself (the
  *adopt plane*), and a double-buffered per-edge message-count matrix.
  A quiescent edge therefore costs zero bytes and zero pickling per
  round — peers read each other's plane slots directly;
* **edge channels** — one duplex pipe per shard pair (USER messages
  may target any core, so non-adjacent shards exchange batches too),
  used *only* when the count matrix says a batch of boundary-crossing
  USER messages is in flight (see :func:`encode_batch`);
* **control channels** — one duplex pipe per worker to the coordinator,
  carrying round commands (``go``/``stop``) and worker replies
  (``status``/``done``/``error``).

Everything shipped over a pipe is plain picklable data: messages are
flattened to columns (the receiving worker rebuilds real
:class:`~repro.core.messages.Message` objects via
``Machine.inject_message``), and workloads travel as
:class:`WorkloadSpec` descriptions that each worker resolves locally
through the deterministic :func:`repro.workloads.get_workload`
factories — workload roots themselves are closures and cannot cross
process boundaries.

Why double buffering is enough
------------------------------
Plane slots are only written by their owning worker and only read by
peers *one coordination round later*.  The coordinator's gather
(every ``status``) and broadcast (every ``go``) form a global barrier
between rounds, so a slot written in round ``r`` (parity ``r % 2``) is
read in round ``r + 1`` strictly after the barrier, and its next write
(round ``r + 2``, same parity) happens strictly after the *next*
barrier — no slot is ever read and written concurrently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterable, List, Tuple

import numpy as np

from multiprocessing import shared_memory

from ..core.fabric import INF
from ..core.messages import Message, MsgKind

# The round protocol's two fixed settings (docs/parallel.md, "Windows").
# The coordinator, the worker and the sanitizer read them as attributes
# of this module, so a test can swap in the lockstep protocol (1.0, 1)
# in one place; fork workers inherit the swap.

#: Cap on the adaptive window multiplier: it doubles after every round
#: that ships no cross-shard message and resets to 1 on traffic.  A
#: window ``w`` parks cores at ``global_min + w * T`` and grants a drift
#: lift of ``(w - 1) * T``, so no lift may exceed
#: ``(WINDOW_MAX_FACTOR - 1) * T`` (the sanitizer's ``window-lift``).
WINDOW_MAX_FACTOR = 64.0
#: Engine sub-rounds a worker runs per coordination round under spatial
#: sync, stopping earlier at its first boundary-crossing message.
ROUND_BATCH = 16

#: Held around board creation, board unlinking and worker forks: a
#: worker forked while another thread (say, a ``JobQueue`` pool thread)
#: holds the resource tracker's lock inherits it held and blocks forever
#: in :meth:`SharedRoundBoard.attach`.
FORK_LOCK = threading.Lock()


def resolve_start_method() -> str:
    """How this host starts shard workers: ``fork`` where the platform
    offers it (workers inherit the parent's imports — milliseconds
    instead of the ~seconds a spawned interpreter pays to boot and
    re-import), else ``spawn``.  Derived from the host, not configured:
    how a worker boots cannot reach the simulated machine."""
    import multiprocessing

    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")


@dataclass
class WorkloadSpec:
    """Picklable description of one root workload.

    The sharded backend re-creates the workload inside the worker that
    owns ``root_core``; because the workload factories are
    deterministic in ``(benchmark, scale, seed, memory)``, the rebuilt
    root is identical to the one a serial run would construct.

    Example::

        from repro.parallel import WorkloadSpec
        spec = WorkloadSpec("quicksort", scale="tiny", seed=0,
                            memory="shared", root_core=0)
    """

    benchmark: str
    scale: str = "small"
    seed: int = 0
    memory: str = "shared"
    root_core: int = 0
    kwargs: Dict = field(default_factory=dict)
    #: Optional ``"module:function"`` override: the function is imported
    #: in the worker and called with ``**kwargs``; it must return an
    #: object with a ``root`` attribute (e.g. a ``WorkloadRun``).  Used
    #: by tests and custom experiments whose roots are not registered
    #: benchmarks.
    factory: str = ""

    def resolve(self):
        """Instantiate the workload (a ``WorkloadRun``) in this process."""
        if self.factory:
            import importlib

            mod_name, _, fn_name = self.factory.partition(":")
            fn = getattr(importlib.import_module(mod_name), fn_name)
            return fn(**self.kwargs)
        from ..workloads import get_workload

        return get_workload(self.benchmark, scale=self.scale, seed=self.seed,
                            memory=self.memory, **self.kwargs)


class SharedRoundBoard:
    """Shared-memory numpy planes backing the round protocol.

    Layout (one block, offsets in 8-byte words):

    ``published[2][n_cores]`` (float64)
        Double-buffered published virtual times.  Each worker writes its
        *boundary* cores' published times into parity ``round % 2``
        after running a round; peers anchor their proxies from parity
        ``(round - 1) % 2`` at the start of the next round.
    ``vtime[n_cores]`` / ``active[n_cores]`` (float64 / int64)
        Per-core snapshots written by the owning worker after each
        round; read only by the coordinator (between its gather and the
        next broadcast) to run the global exact shadow fixpoint.
    ``adopt[n_cores]`` (float64)
        The fixpoint result, written by the coordinator before each
        ``go``; workers adopt it raise-only.
    ``counts[2][n_shards][n_shards]`` (int64)
        Double-buffered cross-shard USER-message counts:
        ``counts[r % 2, src, dst]`` is the number of messages shard
        ``src`` put on the ``src -> dst`` pipe in round ``r``.  The
        receiver polls this instead of the pipe, so quiet edges never
        touch a file descriptor.
    """

    def __init__(self, n_cores: int, n_shards: int, shm) -> None:
        self.n_cores = n_cores
        self.n_shards = n_shards
        self.shm = shm
        buf = shm.buf
        n, s = n_cores, n_shards
        off = 0
        self.published = np.ndarray((2, n), dtype=np.float64, buffer=buf,
                                    offset=off)
        off += 2 * n * 8
        self.vtime = np.ndarray((n,), dtype=np.float64, buffer=buf, offset=off)
        off += n * 8
        self.active = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=off)
        off += n * 8
        self.adopt = np.ndarray((n,), dtype=np.float64, buffer=buf, offset=off)
        off += n * 8
        self.counts = np.ndarray((2, s, s), dtype=np.int64, buffer=buf,
                                 offset=off)
        off += 2 * s * s * 8
        assert off <= shm.size

    @staticmethod
    def _nbytes(n_cores: int, n_shards: int) -> int:
        return (5 * n_cores + 2 * n_shards * n_shards) * 8

    @classmethod
    def create(cls, n_cores: int, n_shards: int) -> "SharedRoundBoard":
        """Allocate and zero-initialize a board (coordinator side)."""
        with FORK_LOCK:
            shm = shared_memory.SharedMemory(
                create=True, size=cls._nbytes(n_cores, n_shards))
        board = cls(n_cores, n_shards, shm)
        board.published[:] = INF
        board.vtime[:] = 0.0
        board.active[:] = 0
        board.adopt[:] = INF
        board.counts[:] = 0
        return board

    @classmethod
    def attach(cls, name: str, n_cores: int, n_shards: int) -> "SharedRoundBoard":
        """Attach to an existing board by name (worker side).

        No resource-tracker gymnastics are needed: both fork and spawn
        children share the coordinator's tracker process (spawn passes
        the tracker fd in its preparation data), so the worker's attach
        merely re-adds the already-tracked name, and the coordinator's
        ``unlink`` remains the single owner of the block's lifecycle.
        A worker-side ``unregister`` would clobber that shared
        registration and make the final unlink warn.
        """
        shm = shared_memory.SharedMemory(name=name)
        return cls(n_cores, n_shards, shm)

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        """Drop the numpy views and unmap the block (all processes)."""
        self.published = self.vtime = self.active = None
        self.adopt = self.counts = None
        self.shm.close()

    def unlink(self) -> None:
        """Free the block (coordinator only, after all workers exited)."""
        with FORK_LOCK:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def encode_batch(msgs: List[Message]) -> bytes:
    """Columnar, delta-encoded pickle of one edge's USER-message batch.

    The shard fence guarantees every boundary-crossing message is a
    USER message, so the kind column is dropped entirely; src/dst core
    ids are delta-encoded (consecutive messages on an edge overwhelmingly
    travel between the same few boundary cores, so deltas stay tiny);
    virtual times are shipped as raw floats — any re-encoding would
    risk the bit-exactness the backend is pinned to.
    """
    import pickle

    srcs = [m.src for m in msgs]
    dsts = [m.dst for m in msgs]
    cols = (
        tuple(_deltas(srcs)),
        tuple(_deltas(dsts)),
        tuple(m.send_time for m in msgs),
        tuple(m.size for m in msgs),
        tuple(m.arrival for m in msgs),
        tuple(m.payload for m in msgs),
        tuple(m.tag for m in msgs),
    )
    return pickle.dumps(cols, protocol=pickle.HIGHEST_PROTOCOL)


def decode_batch(blob: bytes) -> Iterable[tuple]:
    """Inverse of :func:`encode_batch`: yields ``inject_message`` field
    tuples in the sender's emission order (delivery determinism)."""
    import pickle

    dsrcs, ddsts, send_times, sizes, arrivals, payloads, tags = \
        pickle.loads(blob)
    srcs = accumulate(dsrcs)
    dsts = accumulate(ddsts)
    return [
        (MsgKind.USER, src, dst, st, sz, arr, pl, tg)
        for src, dst, st, sz, arr, pl, tg in zip(
            srcs, dsts, send_times, sizes, arrivals, payloads, tags)
    ]


def _deltas(values: List[int]) -> Iterable[int]:
    prev = 0
    for v in values:
        yield v - prev
        prev = v


def make_edge_channels(mp_ctx, partition) -> List[Dict[int, object]]:
    """One duplex pipe per shard pair.

    Returns ``edges`` with ``edges[sid][peer]`` the connection shard
    ``sid`` uses to talk to ``peer``; the matching end is
    ``edges[peer][sid]``.

    Every unordered pair gets a pipe, not just topologically adjacent
    shards: boundary-time planes travel through the shared round board,
    but USER messages may target *any* core in the mesh (``ctx.send``
    is unrestricted), so a shard can owe a batch to a shard it shares
    no mesh edge with.  Idle pipes cost a pair of fds each and are
    never polled (the board's count matrix says which to touch).
    """
    edges: List[Dict[int, object]] = [dict() for _ in range(partition.n_shards)]
    for a in range(partition.n_shards):
        for b in range(a + 1, partition.n_shards):
            conn_a, conn_b = mp_ctx.Pipe(duplex=True)
            edges[a][b] = conn_a
            edges[b][a] = conn_b
    return edges
