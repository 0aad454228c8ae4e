"""Capture and verify the complete deterministic run state of a machine.

:func:`capture_machine_state` reduces a live :class:`~repro.core.engine.
Machine` to plain containers the snapshot codec can encode.  The capture
is split into two sections:

``det``
    Everything the deterministic trajectory defines: the raw bytes of
    every struct-of-arrays column (float-bit-exact), the fabric's birth
    ledger and frontier, per-core inboxes in both their deque (delivery
    order) and heap (arrival order) views, mailboxes and receive
    waiters, task queues, the ready-ring order, runtime scheduler /
    steal / lock state, per-core branch-predictor RNG states and the
    virtual-time statistics.  Two runs that executed the same trajectory
    produce byte-identical ``det`` sections — this is what restore
    verifies bit-for-bit.

``host``
    Observations of the host machine (wall-clock seconds, telemetry
    snapshots with wall-time histograms).  Informational only: carried
    in snapshots, never verified.

Live continuations (``task.gen`` generator frames) and the Python
objects flowing through message payloads cannot be serialized, so tasks
and payloads are captured as *structural summaries*: enough to prove a
replayed machine reached the same state, deliberately excluding
process-global identifiers (``Task.tid``, ``TaskGroup.gid``,
``Message.seq``) whose absolute values differ between two runs in the
same interpreter.  Restore therefore works by deterministic replay — see
``repro.checkpoint.runner`` — with this capture as the bit-exact
acceptance check at the snapshot boundary.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.soa import COLUMNS
from ..core.task import Task, TaskGroup
from .codec import CheckpointMismatchError, content_hash

#: Bound on payload summary recursion (payloads are shallow tuples).
_MAX_DEPTH = 6


# -- structural summaries -----------------------------------------------------

def _raw(value: Any) -> Any:
    """Floats pass through (codec stores raw bits); everything else as-is."""
    return float(value) if isinstance(value, float) else value


def summarize(obj: Any, depth: int = _MAX_DEPTH) -> Any:
    """Reduce an arbitrary payload object to a deterministic summary.

    The summary must be (a) encodable by the codec and (b) equal between
    two runs that executed the same trajectory — so object identities
    and process-global counters are excluded by construction.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if depth <= 0:
        return ("depth", type(obj).__name__)
    if isinstance(obj, (list, tuple)):
        kind = "list" if isinstance(obj, list) else "tuple"
        return (kind, tuple(summarize(o, depth - 1) for o in obj))
    if isinstance(obj, dict):
        return ("dict", tuple(sorted(
            (summarize(k, depth - 1), summarize(v, depth - 1))
            for k, v in obj.items())))
    if isinstance(obj, Task):
        return summarize_task(obj, depth - 1)
    if isinstance(obj, TaskGroup):
        # gid (and the default name derived from it) is process-global.
        return ("group", obj.count, len(obj.joiners))
    type_name = type(obj).__name__
    if type_name == "SimLock":
        return ("lock", obj.home_core, obj.holder is not None,
                len(obj.waiters), obj.acquisitions,
                obj.contended_acquisitions)
    if type_name == "Message":
        return summarize_message(obj, depth - 1)
    if hasattr(obj, "__dataclass_fields__"):  # engine actions
        fields = tuple(
            (name, summarize(getattr(obj, name), depth - 1))
            for name in sorted(obj.__dataclass_fields__))
        return ("action", type_name, fields)
    if callable(obj):
        return ("fn", getattr(obj, "__qualname__", repr(type(obj))))
    if hasattr(obj, "value") and hasattr(obj, "name"):  # enums
        return ("enum", type_name, obj.name)
    return ("obj", type_name)


def summarize_task(task: Task, depth: int = _MAX_DEPTH) -> tuple:
    """Deterministic task summary (``tid`` deliberately excluded)."""
    return (
        "task",
        getattr(task.fn, "__qualname__", str(task.fn)),
        task.state.value,
        task.core,
        _raw(task.birth_time),
        _raw(task.ready_time),
        _raw(task.start_time),
        _raw(task.resume_time),
        bool(task.resume_is_ctx_switch),
        summarize(task.resume_value, depth - 1) if depth > 0 else None,
        summarize(task.waiting_on, depth - 1) if depth > 0 else None,
        bool(task.is_root),
    )


def summarize_message(msg, depth: int = _MAX_DEPTH) -> tuple:
    """Deterministic message summary (``seq`` deliberately excluded)."""
    return (
        "msg",
        msg.kind.name,
        msg.src,
        msg.dst,
        _raw(msg.send_time),
        _raw(msg.size),
        _raw(msg.arrival),
        msg.tag,
        bool(msg.consumed),
        summarize(msg.payload, depth - 1) if depth > 0 else None,
    )


# -- per-subsystem capture ----------------------------------------------------

def _capture_core(core) -> Dict[str, Any]:
    live_deque = [summarize_message(m) for m in core.inbox if not m.consumed]
    heap = core._arrival_heap
    # The heap's internal order depends on push/pop history, which the
    # deterministic trajectory fixes; entries keep their tombstones so
    # the lazy-purge state is captured too.
    live_heap = [( _raw(arrival), summarize_message(m))
                 for arrival, _seq, m in heap] if heap is not None else None
    out = {
        "queue": [summarize_task(t) for t in core.queue],
        "current": summarize_task(core.current) if core.current else None,
        "inbox": live_deque,
        "arrival_heap": live_heap,
        "mailbox": [summarize_message(m) for m in core.user_mailbox],
        "recv_waiters": [(summarize_task(t), tag)
                         for t, tag in core.recv_waiters],
        "reserved_slots": core.reserved_slots,
        "locks_held": int(core.locks_held),
        "lax_ref": _raw(core.lax_ref),
        "lax_next_check": _raw(core.lax_next_check),
    }
    annotator = core.annotator
    if annotator is None:
        # Built at the core's first task start; until then its
        # predictor is the fresh one it will be built as.
        out["predictor"] = {"predictions": 0, "mispredictions": 0,
                            "rng": None}
        return out
    predictor = annotator.predictor
    rng = predictor._rng
    out["predictor"] = {
        "predictions": predictor.predictions,
        "mispredictions": predictor.mispredictions,
        "rng": _freeze_bitgen_state(rng.bit_generator.state)
        if rng is not None else None,
    }
    return out


def _freeze_bitgen_state(state: Dict[str, Any]) -> Any:
    """numpy BitGenerator state dicts hold nested dicts/uint arrays."""
    if isinstance(state, dict):
        return {k: _freeze_bitgen_state(v) for k, v in state.items()}
    if isinstance(state, (list, tuple)):
        return [int(v) for v in state]
    if hasattr(state, "tolist"):  # ndarray of uint64 words
        return [int(v) for v in state.tolist()]
    if isinstance(state, float):
        return float(state)
    return int(state) if isinstance(state, int) else state


def restore_bitgen_state(frozen: Any) -> Any:
    """Inverse of :func:`_freeze_bitgen_state` for ``bit_generator.state``."""
    import numpy as np

    if isinstance(frozen, dict):
        out = {}
        for key, value in frozen.items():
            if key == "state" and isinstance(value, list):
                out[key] = np.array(value, dtype=np.uint64)
            else:
                out[key] = restore_bitgen_state(value)
        return out
    return frozen


def _capture_fabric(fabric) -> Dict[str, Any]:
    births = [sorted((float(t), int(n)) for t, n in per_core.items())
              if per_core is not None else []
              for per_core in fabric._births]
    return {
        "max_vtime": _raw(fabric.max_vtime),
        "shadow_recomputes": fabric.shadow_recomputes,
        "births": births,
        "idle_nbr_count": list(fabric._idle_nbr_count),
        "dirty": bool(fabric._dirty),
    }


def _capture_runtime(runtime) -> Dict[str, Any]:
    # _group_last_finish is keyed by process-global gids; two runs visit
    # the same groups in the same order, so the sorted value multiset is
    # the deterministic content.
    finishes = sorted((_raw(t), core)
                      for t, core in runtime._group_last_finish.values())
    return {
        # A core's proxy map is built at its first use, all zeros.
        "proxy": [sorted(proxies.items()) if proxies is not None
                  else [(n, 0) for n in sorted(runtime._neighbors[cid])]
                  for cid, proxies in enumerate(runtime._proxy)],
        "cursor": list(runtime._cursor),
        "last_broadcast": list(runtime._last_broadcast),
        "steal_pending": [bool(b) for b in runtime._steal_pending],
        "steals_attempted": runtime.steals_attempted,
        "steals_successful": runtime.steals_successful,
        "group_last_finish": finishes,
    }


def _capture_stats(stats) -> Dict[str, Any]:
    by_kind = sorted((kind.name, int(count))
                     for kind, count in stats.messages_by_kind.items())
    return {
        "completion_vtime": _raw(stats.completion_vtime),
        "actions": stats.actions,
        "compute_actions": stats.compute_actions,
        "mem_accesses": stats.mem_accesses,
        "cell_accesses": stats.cell_accesses,
        "remote_cell_accesses": stats.remote_cell_accesses,
        "context_switches": stats.context_switches,
        "tasks_started": stats.tasks_started,
        "tasks_spawned_remote": stats.tasks_spawned_remote,
        "tasks_run_inline": stats.tasks_run_inline,
        "drift_stalls": stats.drift_stalls,
        "lock_waiver_runs": stats.lock_waiver_runs,
        "out_of_order_msgs": stats.out_of_order_msgs,
        "messages_by_kind": by_kind,
        "noc": {str(k): _raw(v) for k, v in stats.noc.items()},
        "core_busy_cycles": {int(k): _raw(v)
                             for k, v in stats.core_busy_cycles.items()},
    }


# -- whole-machine capture ----------------------------------------------------

def capture_machine_state(machine) -> Dict[str, Any]:
    """Capture the complete run state of ``machine`` at a safe point.

    Safe points are the places the drivers stop with no slice in flight:
    a serial ``stop_at_vtime`` return or a sharded round barrier.  The
    result is codec-encodable; ``det`` is bit-exact and verifiable,
    ``host`` is informational.
    """
    soa = machine.soa
    det: Dict[str, Any] = {
        "n_cores": machine.n_cores,
        "live_tasks": machine.live_tasks,
        "last_finish_time": _raw(machine.last_finish_time),
        # floor_lb is excluded: it is a pure admission cache.  A miss
        # re-derives the exact floor (SpatialSync.may_run), so cache
        # content never decides an admission and is not state a replay
        # must reproduce.
        "columns": {name: getattr(soa, name).tobytes()
                    for name, _code, _fill in COLUMNS
                    if name != "floor_lb"},
        "ready_ring": [core.cid for core in machine._ready],
        "stalled": sorted(machine._stalled),
        "window_parked": sorted(machine._window_parked),
        "cores": [_capture_core(core) for core in machine.cores],
        "fabric": _capture_fabric(machine.fabric),
        "runtime": (_capture_runtime(machine.runtime)
                    if machine.runtime is not None else None),
        "stats": _capture_stats(machine.stats),
        "roots": [summarize_task(t) for t in machine.root_tasks],
    }
    host: Dict[str, Any] = {
        "wall_seconds": _raw(machine.stats.wall_seconds),
    }
    if machine.telemetry is not None:
        host["telemetry"] = summarize(machine.telemetry.snapshot())
    return {"det": det, "host": host}


def state_hash(state: Dict[str, Any]) -> str:
    """Content hash of a capture's deterministic section."""
    return content_hash(state["det"])


def _first_divergence(expected: Any, actual: Any, path: str) -> str:
    """Human-oriented pointer at the first differing leaf."""
    if type(expected) is not type(actual):
        return (f"{path}: type {type(expected).__name__} != "
                f"{type(actual).__name__}")
    if isinstance(expected, dict):
        for key in expected:
            if key not in actual:
                return f"{path}.{key}: missing in replayed state"
            if expected[key] != actual[key]:
                return _first_divergence(expected[key], actual[key],
                                         f"{path}.{key}")
        extra = set(actual) - set(expected)
        if extra:
            return f"{path}: unexpected keys {sorted(extra, key=str)!r}"
    elif isinstance(expected, (list, tuple)):
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            if e != a:
                return _first_divergence(e, a, f"{path}[{i}]")
    return f"{path}: {expected!r} != {actual!r}"


def verify_machine_state(expected: Dict[str, Any],
                         actual: Dict[str, Any]) -> None:
    """Require bit-identical ``det`` sections, else fail loudly.

    Raises :class:`CheckpointMismatchError` naming the first divergent
    field — a replay that does not reproduce the captured state is a
    determinism bug, and continuing from it would silently produce
    wrong results.
    """
    exp, act = expected["det"], actual["det"]
    if exp == act:
        return
    where = _first_divergence(exp, act, "det")
    raise CheckpointMismatchError(
        "replayed state diverged from the checkpoint at the snapshot "
        f"boundary ({where}); refusing to resume from a state the "
        "replay cannot reproduce")
