"""Build runnable machines from architecture configurations."""

from __future__ import annotations

from .config import ArchConfig
from ..core.engine import Machine
from ..core.sync import make_policy
from ..memory.coherence import CoherenceModel
from ..memory.distmem import DistributedMemoryModel
from ..memory.numa import NumaMemoryModel
from ..memory.sharedmem import SharedMemoryModel
from ..network.topology import (
    Topology,
    clustered_mesh,
    crossbar,
    ring,
    square_mesh,
    torus2d,
)
from ..runtime.dispatch import make_dispatch
from ..runtime.runtime import Runtime


def build_topology(cfg: ArchConfig) -> Topology:
    """Instantiate the configured interconnect."""
    if cfg.topology == "mesh":
        return square_mesh(
            cfg.n_cores, latency=cfg.link_latency, bandwidth=cfg.link_bandwidth
        )
    if cfg.topology == "clustered":
        return clustered_mesh(
            cfg.n_cores,
            cfg.n_clusters,
            intra_latency=cfg.intra_cluster_latency,
            inter_latency=cfg.inter_cluster_latency,
            bandwidth=cfg.link_bandwidth,
        )
    if cfg.topology == "ring":
        return ring(cfg.n_cores, latency=cfg.link_latency,
                    bandwidth=cfg.link_bandwidth)
    if cfg.topology == "torus":
        import math

        side = int(math.isqrt(cfg.n_cores))
        while side > 1 and cfg.n_cores % side:
            side -= 1
        return torus2d(cfg.n_cores // side, side, latency=cfg.link_latency,
                       bandwidth=cfg.link_bandwidth)
    if cfg.topology == "crossbar":
        return crossbar(cfg.n_cores, latency=cfg.link_latency,
                        bandwidth=cfg.link_bandwidth)
    raise ValueError(f"unknown topology {cfg.topology!r}")


def build_memory(cfg: ArchConfig):
    """Instantiate the configured memory model."""
    if cfg.memory == "shared":
        coherence = CoherenceModel() if cfg.coherence_enabled else None
        return SharedMemoryModel(
            bank_latency=cfg.bank_latency,
            l1_latency=cfg.l1_latency,
            coherence=coherence,
        )
    if cfg.memory == "numa":
        return NumaMemoryModel(
            bank_latency=cfg.bank_latency,
            l1_latency=cfg.l1_latency,
            coherence=CoherenceModel() if cfg.coherence_enabled else None,
        )
    return DistributedMemoryModel(
        l2_latency=cfg.l2_latency,
        l1_latency=cfg.l1_latency,
    )


def build_machine(cfg: ArchConfig) -> Machine:
    """Assemble a ready-to-run (serial) machine from a configuration.

    With ``cfg.shards > 0`` the machine is *fenced*: a
    :class:`~repro.parallel.partition.Partition` is attached as
    ``machine.fence`` and the run-time restricts dispatch, queue-state
    gossip, steal victims and distributed-memory homes to shard-local
    cores.  The fence changes simulation semantics identically under
    both backends; use :func:`build_backend` to honour ``cfg.backend``.

    Example::

        from repro.arch import build_machine, shared_mesh
        machine = build_machine(shared_mesh(64))
        result = machine.run(my_root_fn)
        print(machine.stats.completion_vtime)
    """
    topo = build_topology(cfg)
    policy = make_policy(cfg.sync)
    machine = Machine(
        topo,
        policy,
        cfg.engine_params(),
        drift_bound=cfg.drift_bound,
        shadow=cfg.shadow,
        speed_factors=cfg.resolved_speed_factors(),
        branch_accuracy=cfg.branch_accuracy,
        branch_penalty=cfg.branch_penalty,
        router_penalty=cfg.router_penalty,
        chunk_bytes=cfg.chunk_bytes,
        seed=cfg.seed,
    )
    if cfg.shards > 0:
        from ..parallel.partition import contiguous_partition

        machine.fence = contiguous_partition(topo, cfg.shards)
    if cfg.telemetry:
        from ..obs import Telemetry

        # Before runtime attach: Runtime caches machine.telemetry.
        machine.attach_telemetry(Telemetry(cfg.telemetry, cfg.n_cores))
    machine.attach_memory(build_memory(cfg))
    machine.attach_runtime(
        Runtime(
            dispatch=make_dispatch(cfg.dispatch),
            work_stealing=cfg.work_stealing,
        )
    )
    if cfg.sanitize:
        from ..verify.sanitizer import Sanitizer

        Sanitizer(machine)
    if cfg.collect_trace:
        from ..harness.trace import Tracer

        machine.tracer = Tracer(machine)
    return machine


def build_backend(cfg: ArchConfig):
    """Build the execution backend ``cfg.backend`` selects.

    Returns a serial :class:`~repro.core.engine.Machine` or a
    :class:`~repro.parallel.coordinator.ShardedMachine`.  Both expose
    the same execution surface — ``run_workloads(specs, timeout, *,
    checkpoint_every, checkpoint_sink, verify_at, verify_states)`` with
    one meaning per argument (``timeout`` is the run's wall-clock
    budget; ``checkpoint_every`` / ``verify_at`` are virtual times)
    plus ``stats``, ``trace``, ``telemetry_snapshot()`` and ``protocol``
    (``None`` on serial) — so callers neither branch on the backend nor
    translate for it.  Specs are picklable
    :class:`~repro.parallel.WorkloadSpec` objects (the sharded backend
    rebuilds roots inside each worker), hence this entry point rather
    than ``run(root_fn)``.

    ``build_backend(cfg).run_workloads(...)`` is the one way
    ``python -m repro run``, the checkpoint drivers, the fuzzer and the
    job queue behind ``python -m repro serve`` execute a spec — the
    service adds queuing and caching around it but never its own
    semantics.
    Note that ``cfg.backend`` (and the sharding knobs it activates) is
    *semantic* for result identity: serial and sharded trajectories may
    legitimately differ for runs with cross-shard traffic, so the
    service's content hash keeps them as separate cache entries.

    Example::

        import dataclasses
        from repro.arch import build_backend, shared_mesh
        from repro.parallel import WorkloadSpec
        cfg = dataclasses.replace(shared_mesh(16), shards=2,
                                  backend="sharded")
        backend = build_backend(cfg)
        results = backend.run_workloads(
            [WorkloadSpec("quicksort", scale="tiny", root_core=0)])
    """
    if cfg.backend == "sharded":
        from ..parallel.coordinator import ShardedMachine

        return ShardedMachine(cfg)
    return build_machine(cfg)
