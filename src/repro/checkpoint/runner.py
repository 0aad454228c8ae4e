"""Checkpointed run drivers: snapshot, restore-by-verified-replay, resume.

Tasks are live Python generator frames and message payloads carry live
``Task``/``SimLock`` objects, so a snapshot cannot byte-serialize the
continuations themselves.  Restore therefore works by **verified
replay**: rebuild the machine from the snapshot's config and workload
specs (both fully deterministic), re-execute from virtual time zero to
the snapshot boundary, and require the replayed machine state to be
*bit-identical* to the captured one —
:class:`~repro.checkpoint.codec.CheckpointMismatchError` otherwise.
Only then does execution continue past the boundary.

This yields exactly the differential contract the conformance fuzzer
pins: ``run(0→end)`` and ``run(0→k); restore; run(k→end)`` produce
bit-identical result documents and trace digests, for any workload ×
backend.  What a checkpoint buys is not wall-clock on the
prefix (the prefix is re-simulated) but *integrity*: a killed or
preempted job resumes onto a state proven equal to the one it lost,
and any divergence — code drift, nondeterminism, a corrupted file —
fails loudly instead of silently producing wrong numbers.

Boundaries are the backends' natural safe points: a ``stop_at_vtime``
return for the serial engine (no slice in flight) and a coordination
round barrier for the sharded backend (workers blocked on the next
command).

Limitations, by design: restoring onto a different shard count fails
loudly (the coordinator refuses mismatched state lists), and
``parallelism_sample_interval`` sampling is perturbed by segment
boundaries (samples are host-observation only and excluded from
captures).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch.builder import build_backend, build_machine
from ..arch.config import ArchConfig
from ..parallel.channels import WorkloadSpec
from .codec import CheckpointError
from .snapshot import Snapshot, load_snapshot, make_snapshot
from .state import capture_machine_state, verify_machine_state

#: Keys of the round-protocol dict that are host observations (wall
#: clock), excluded from deterministic outcome comparison.
_HOST_PROTOCOL_KEYS = ("worker_busy_s", "parallel_efficiency")


# -- outcome documents --------------------------------------------------------

def _resolve_roots(specs: Sequence[WorkloadSpec]):
    return [(spec.resolve().root, (), spec.root_core) for spec in specs]


def _build_serial(cfg: ArchConfig):
    machine = build_machine(cfg)
    tracer = None
    if cfg.collect_trace:
        from ..harness.trace import Tracer

        tracer = Tracer(machine)
    return machine, tracer


def _serial_outcome(machine, tracer, results) -> Dict:
    stats = machine.stats.as_dict()
    host = {"wall_seconds": stats.pop("wall_seconds", 0.0)}
    digest = None
    if tracer is not None:
        from ..harness.trace import trace_digest

        digest = trace_digest(tracer.export())
    return {
        "backend": "serial",
        "results": results,
        "digest": digest,
        "completion": machine.stats.completion_vtime,
        "messages": {k.name: v
                     for k, v in machine.stats.messages_by_kind.items()},
        "stats_vt": stats,
        "host": host,
    }


def _sharded_outcome(backend, results) -> Dict:
    stats = backend.stats.as_dict()
    host = {"wall_seconds": stats.pop("wall_seconds", 0.0)}
    protocol = dict(backend.protocol)
    for key in _HOST_PROTOCOL_KEYS:
        host[key] = protocol.pop(key, None)
    digest = None
    if backend.trace is not None:
        from ..harness.trace import trace_digest

        digest = trace_digest(backend.trace)
    return {
        "backend": "sharded",
        "results": results,
        "digest": digest,
        "completion": backend.stats.completion_vtime,
        "messages": {k.name: v
                     for k, v in backend.stats.messages_by_kind.items()},
        "stats_vt": stats,
        "protocol": protocol,
        "host": host,
    }


def run_straight(cfg: ArchConfig, specs: Sequence[WorkloadSpec],
                 timeout: Optional[float] = 300.0) -> Dict:
    """Uninterrupted reference run; returns the outcome document."""
    specs = list(specs)
    if cfg.backend == "sharded":
        backend = build_backend(cfg)
        results = backend.run_workloads(specs, timeout=timeout)
        return _sharded_outcome(backend, results)
    machine, tracer = _build_serial(cfg)
    results = machine.run_roots(_resolve_roots(specs))
    return _serial_outcome(machine, tracer, results)


# -- checkpointing runs -------------------------------------------------------

def run_serial_checkpointed(cfg: ArchConfig, specs: Sequence[WorkloadSpec],
                            every: float,
                            sink: Callable[[Snapshot], None]) -> Dict:
    """Serial run that snapshots every ``every`` virtual-time cycles.

    ``sink`` receives a fresh :class:`Snapshot` at each boundary the
    run crosses with work still live; checkpointing is observation-only
    (the outcome is bit-identical to :func:`run_straight`).
    """
    if every <= 0:
        raise CheckpointError(f"checkpoint interval must be > 0, got {every}")
    specs = list(specs)
    machine, tracer = _build_serial(cfg)
    k = float(every)
    results = machine.run_roots(_resolve_roots(specs), stop_at_vtime=k)
    while machine.live_tasks > 0:
        sink(make_snapshot("serial", cfg, specs,
                           {"kind": "vtime", "value": k},
                           [capture_machine_state(machine)]))
        # Skip boundaries the last segment overshot, so every snapshot
        # captures fresh progress.
        while k <= machine.fabric.max_vtime:
            k += every
        results = machine.resume_run(stop_at_vtime=k)
    return _serial_outcome(machine, tracer, results)


def run_sharded_checkpointed(cfg: ArchConfig, specs: Sequence[WorkloadSpec],
                             every: int, sink: Callable[[Snapshot], None],
                             timeout: Optional[float] = 300.0) -> Dict:
    """Sharded run that snapshots every ``every`` coordination rounds."""
    specs = list(specs)
    backend = build_backend(cfg)

    def board_sink(round_no: int, states: List[dict]) -> None:
        sink(make_snapshot("sharded", cfg, specs,
                           {"kind": "round", "value": round_no}, states))

    results = backend.run_workloads(specs, timeout=timeout,
                                    checkpoint_every=int(every),
                                    checkpoint_sink=board_sink)
    return _sharded_outcome(backend, results)


def run_checkpointed(cfg: ArchConfig, specs: Sequence[WorkloadSpec],
                     every, sink: Callable[[Snapshot], None],
                     timeout: Optional[float] = 300.0) -> Dict:
    """Backend-dispatching checkpointed run (interval in virtual-time
    cycles for serial, coordination rounds for sharded)."""
    if cfg.backend == "sharded":
        return run_sharded_checkpointed(cfg, specs, int(every), sink,
                                        timeout=timeout)
    return run_serial_checkpointed(cfg, specs, float(every), sink)


# -- restore / resume ---------------------------------------------------------

def restore_serial(snap: Snapshot):
    """Rebuild + replay a serial snapshot to its boundary, bit-verified.

    Returns ``(machine, tracer, specs)`` stopped exactly at the
    boundary, ready for ``machine.resume_run()``.
    """
    if snap.kind != "serial":
        raise CheckpointError(
            f"snapshot kind {snap.kind!r} cannot restore on the serial "
            "backend")
    cfg = snap.rebuild_config()
    specs = snap.rebuild_workloads()
    machine, tracer = _build_serial(cfg)
    k = float(snap.boundary["value"])
    machine.run_roots(_resolve_roots(specs), stop_at_vtime=k)
    verify_machine_state(snap.states[0], capture_machine_state(machine))
    return machine, tracer, specs


def resume_serial(snap: Snapshot, *,
                  checkpoint_every: Optional[float] = None,
                  sink: Optional[Callable[[Snapshot], None]] = None) -> Dict:
    """Restore a serial snapshot and run to completion.

    With ``checkpoint_every``/``sink``, checkpointing continues past the
    boundary (boundaries advance from the snapshot's one).
    """
    machine, tracer, specs = restore_serial(snap)
    cfg = snap.rebuild_config()
    if checkpoint_every:
        every = float(checkpoint_every)
        k = float(snap.boundary["value"])
        while k <= machine.fabric.max_vtime:
            k += every
        results = machine.resume_run(stop_at_vtime=k)
        while machine.live_tasks > 0:
            sink(make_snapshot("serial", cfg, specs,
                               {"kind": "vtime", "value": k},
                               [capture_machine_state(machine)]))
            while k <= machine.fabric.max_vtime:
                k += every
            results = machine.resume_run(stop_at_vtime=k)
    else:
        results = machine.resume_run()
    return _serial_outcome(machine, tracer, results)


def resume_sharded(snap: Snapshot, *,
                   checkpoint_every: Optional[int] = None,
                   sink: Optional[Callable[[Snapshot], None]] = None,
                   timeout: Optional[float] = 300.0) -> Dict:
    """Restore a sharded snapshot (verified replay at the round barrier)
    and run to completion on a fresh worker pool.

    The shard count is the snapshot's; the coordinator refuses a state
    list that does not match its partition, so restoring onto a
    different shard count fails loudly rather than approximately.
    """
    if snap.kind != "sharded":
        raise CheckpointError(
            f"snapshot kind {snap.kind!r} cannot restore on the sharded "
            "backend")
    cfg = snap.rebuild_config()
    specs = snap.rebuild_workloads()
    backend = build_backend(cfg)
    board_sink = None
    if checkpoint_every:
        def board_sink(round_no: int, states: List[dict]) -> None:
            sink(make_snapshot("sharded", cfg, specs,
                               {"kind": "round", "value": round_no}, states))
    results = backend.run_workloads(
        specs, timeout=timeout,
        verify_round=int(snap.boundary["value"]),
        verify_states=snap.states,
        checkpoint_every=int(checkpoint_every) if checkpoint_every else None,
        checkpoint_sink=board_sink)
    return _sharded_outcome(backend, results)


def resume_run(snap, *, checkpoint_every=None, sink=None,
               timeout: Optional[float] = 300.0) -> Dict:
    """Resume a snapshot (object or file path) on its own backend."""
    if isinstance(snap, str):
        snap = load_snapshot(snap)
    if snap.kind == "sharded":
        return resume_sharded(snap, checkpoint_every=checkpoint_every,
                              sink=sink, timeout=timeout)
    return resume_serial(snap, checkpoint_every=checkpoint_every, sink=sink)


# -- split-run equivalence (fuzzing / CI) -------------------------------------

def split_run(cfg: ArchConfig, specs: Sequence[WorkloadSpec], k,
              timeout: Optional[float] = 300.0
              ) -> Tuple[Optional[Snapshot], Dict, Optional[Dict]]:
    """One ``run(0→k); restore; run(k→end)`` round trip.

    Returns ``(snapshot, checkpointed_outcome, resumed_outcome)``;
    ``snapshot``/``resumed_outcome`` are ``None`` when the run finished
    before ever crossing ``k`` (nothing to verify — the checkpointed
    outcome is still a complete straight run).
    """
    first: List[Snapshot] = []

    def keep_first(snapshot: Snapshot) -> None:
        if not first:
            first.append(snapshot)

    straight = run_checkpointed(cfg, specs, k, keep_first, timeout=timeout)
    if not first:
        return None, straight, None
    resumed = resume_run(first[0], timeout=timeout)
    return first[0], straight, resumed
