"""Sharded multiprocess execution backend (see docs/parallel.md).

The drift bound ``T`` of spatial synchronization is also the
conservative lookahead of a parallel discrete-event simulation: work
below ``global_min + T`` cannot be affected by anything the other
shards have not simulated yet.  This package exploits that to run
contiguous mesh regions in separate worker processes:

* :mod:`~repro.parallel.partition` — contiguous shard partitioning,
  boundary/proxy structure, and the semantic *fence* both backends
  honour when ``ArchConfig.shards > 0``;
* :mod:`~repro.parallel.channels` — picklable workload specs, message
  encoding and per-edge pipes;
* :mod:`~repro.parallel.worker` — the per-shard worker process;
* :mod:`~repro.parallel.coordinator` — the :class:`ShardedMachine`
  lockstep driver (windows, global shadow rescue, stats merge).

Names resolve on first use: a serial run that only describes its
workloads (``WorkloadSpec``) loads neither the coordinator nor the
worker, nor ``multiprocessing``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".channels": ("WorkloadSpec",),
    ".coordinator": ("ShardedMachine",),
    ".partition": ("Partition", "contiguous_partition"),
})

__all__ = [
    "Partition",
    "ShardedMachine",
    "WorkloadSpec",
    "contiguous_partition",
]
