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

Boundaries are virtual times, taken at the backends' natural safe
points: a ``stop_at_vtime`` return for the serial engine (no slice in
flight) and the first coordination-round barrier whose frontier reached
the boundary for the sharded backend (workers blocked on the next
command).  Both backends take the same ``run_workloads`` checkpoint and
verify hooks with the same meaning, so every driver here is
backend-agnostic: :func:`checkpoint_kwargs` is the one place that maps
:class:`Snapshot` objects onto those hooks.

Limitations, by design: restoring onto a different shard count fails
loudly (the coordinator refuses mismatched state lists), and
``parallelism_sample_interval`` sampling is perturbed by segment
boundaries (samples are host-observation only and excluded from
captures).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch.builder import build_backend
from ..arch.config import ArchConfig
from ..harness.trace import trace_digest
from ..parallel.channels import WorkloadSpec
from .codec import CheckpointError
from .snapshot import Snapshot, load_snapshot, make_snapshot

#: Keys of the round-protocol dict that are host observations (wall
#: clock), excluded from deterministic outcome comparison.
_HOST_PROTOCOL_KEYS = ("worker_busy_s", "parallel_efficiency")


def checkpoint_kwargs(cfg: ArchConfig,
                      specs: Sequence[WorkloadSpec], *,
                      every=None,
                      sink: Optional[Callable[[Snapshot], None]] = None,
                      resume: Optional[Snapshot] = None,
                      note: str = "") -> Dict:
    """``backend.run_workloads`` keyword arguments for a checkpointing
    and/or resuming run (empty for a straight one).

    With ``every``, ``sink`` receives a fresh :class:`Snapshot` at each
    boundary the run crosses with work still live — every that-many
    virtual-time cycles.  With ``resume``, the run replays to the
    snapshot's boundary and must match its captured state bit-for-bit
    before continuing; the shard count is the snapshot's (the
    coordinator refuses a state list that does not match its partition).
    """
    kwargs: Dict = {}
    if every is not None:
        def checkpoint_sink(boundary, states: List[dict]) -> None:
            sink(make_snapshot(
                cfg.backend, cfg, specs,
                {"kind": "vtime", "value": boundary}, states, note=note))

        kwargs.update(checkpoint_every=every, checkpoint_sink=checkpoint_sink)
    if resume is not None:
        if resume.kind != cfg.backend:
            raise CheckpointError(
                f"snapshot kind {resume.kind!r} cannot restore on the "
                f"{cfg.backend} backend")
        if resume.boundary.get("kind") != "vtime":
            raise CheckpointError(
                f"snapshot boundary {resume.boundary!r} is not a virtual "
                "time; boundaries of any other kind are not supported")
        kwargs.update(verify_at=resume.boundary["value"],
                      verify_states=resume.states)
    return kwargs


def _run(cfg: ArchConfig, specs: Sequence[WorkloadSpec],
         timeout: Optional[float], **checkpointing) -> Dict:
    """Run ``specs`` on ``cfg``'s backend; return the outcome document."""
    specs = list(specs)
    backend = build_backend(cfg)
    results = backend.run_workloads(
        specs, timeout=timeout,
        **checkpoint_kwargs(cfg, specs, **checkpointing))
    stats = backend.stats.as_dict()
    host = {"wall_seconds": stats.pop("wall_seconds", 0.0)}
    trace = backend.trace
    outcome = {
        "backend": cfg.backend,
        "results": results,
        "digest": None if trace is None else trace_digest(trace),
        "completion": backend.stats.completion_vtime,
        "messages": {k.name: v
                     for k, v in backend.stats.messages_by_kind.items()},
        "stats_vt": stats,
        "host": host,
    }
    if backend.protocol is not None:
        protocol = dict(backend.protocol)
        for key in _HOST_PROTOCOL_KEYS:
            host[key] = protocol.pop(key, None)
        outcome["protocol"] = protocol
    return outcome


def run_straight(cfg: ArchConfig, specs: Sequence[WorkloadSpec],
                 timeout: Optional[float] = None) -> Dict:
    """Uninterrupted reference run; returns the outcome document."""
    return _run(cfg, specs, timeout)


def run_checkpointed(cfg: ArchConfig, specs: Sequence[WorkloadSpec],
                     every, sink: Callable[[Snapshot], None],
                     timeout: Optional[float] = None) -> Dict:
    """Run that hands ``sink`` a :class:`Snapshot` every ``every``
    virtual-time cycles.  Checkpointing is observation-only: the outcome
    is bit-identical to :func:`run_straight`."""
    return _run(cfg, specs, timeout, every=every, sink=sink)


def resume_run(snap, *, checkpoint_every=None, sink=None,
               timeout: Optional[float] = None) -> Dict:
    """Restore a snapshot (object or file path) by verified replay on
    its own backend and run to completion.

    With ``checkpoint_every``/``sink``, checkpointing continues past
    the snapshot's boundary.
    """
    if isinstance(snap, str):
        snap = load_snapshot(snap)
    return _run(snap.rebuild_config(), snap.rebuild_workloads(), timeout,
                every=checkpoint_every, sink=sink, resume=snap)


#: Names ``benchmarks/e2e/layers.py`` imports; the drivers they are
#: bound to serve either backend.
run_serial_checkpointed = run_checkpointed
resume_serial = resume_run


# -- split-run equivalence (fuzzing / CI) -------------------------------------

def split_run(cfg: ArchConfig, specs: Sequence[WorkloadSpec], k,
              timeout: Optional[float] = None
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
