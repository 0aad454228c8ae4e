"""Shard worker process: drives one region of the mesh.

Each worker builds a complete (fenced) machine replica from the shared
``ArchConfig`` — every core, the full NoC, the full fabric — but only
*drives* the cores its shard owns (``Machine.set_shard_scope``).  The
remote cores it is adjacent to act as **boundary proxy cores**: they
never execute, but the fabric anchors them at the owning worker's
published virtual times (``set_proxy_time``) so local drift checks and
relax waves see true values instead of shadowing over them.

The worker is driven by the coordinator through the shared round board
(:class:`~repro.parallel.channels.SharedRoundBoard`) plus a slim
control pipe:

``("go", horizon, lift, waive)``
    1. Adopt the coordinator's exact-shadow fixpoint from the board's
       *adopt plane* (owned idle cores, raise-only) and re-anchor every
       boundary proxy from the peers' published plane and the adopt
       plane, plus the adaptive-window ``lift`` — the extra drift
       permission ``(window - 1) * T`` the coordinator granted for this
       round (see docs/parallel.md).
    2. Drain any cross-shard USER-message batches peers shipped last
       round (the board's count matrix says which pipes to touch).
    3. When ``waive`` is set (coordinator escalation after a stalled
       relief round), force one slice on the earliest owned core
       (``run_shard_waiver``).  Then run up to ``ROUND_BATCH``
       engine sub-rounds, re-running the *scoped* exact shadow fixpoint
       (``Machine.refresh_shard_shadows``) between sub-rounds so
       shadows frozen mid-batch keep moving — and stopping the moment a
       boundary-crossing message is emitted, work runs out, or a
       sub-round can neither progress nor raise a shadow.
    4. Publish boundary times and the (active, vtime) snapshot to the
       board, ship message batches (counts into the board, columns over
       the edge pipes), and reply with a slim status tuple.
``("snapshot",)``
    Reply with this worker's machine-state capture
    (``repro.checkpoint.state``) — sent at a round barrier, where no
    slice is in flight and the capture is a pure read.
``("stop",)``
    Finalize stats and reply with results plus per-edge byte counts,
    this worker's cumulative busy wall time, its packed trace
    (``cfg.collect_trace``; ``None`` otherwise) and its telemetry
    snapshot.

Module-level entry point (``worker_main``) so the ``spawn`` start
method can import it in the child process; under ``fork`` the child
simply inherits it.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List

import numpy as np

from ..arch.builder import build_machine
from ..core.errors import SanitizerViolation, ShardBoundaryError
from ..core.fabric import INF
from ..core.messages import Message, MsgKind
from . import channels
from .channels import SharedRoundBoard, decode_batch, encode_batch


def worker_main(sid: int, cfg, specs, edge_conns: Dict[int, object],
                ctrl_conn, board_name: str) -> None:
    """Process entry point for shard ``sid``.

    ``edge_conns`` maps peer shard id -> duplex connection;
    ``ctrl_conn`` is the coordinator control channel; ``board_name``
    identifies the shared round board to attach to.
    """
    try:
        _worker_loop(sid, cfg, specs, edge_conns, ctrl_conn, board_name)
    except SanitizerViolation as exc:  # structured: re-raised coordinator-side
        try:
            ctrl_conn.send(("violation", sid, exc.check, str(exc),
                            {"core": exc.core, "vtime": exc.vtime,
                             "bound": exc.bound, "details": exc.details},
                            traceback.format_exc()))
        except Exception:
            pass
    except BaseException as exc:  # ship the failure to the coordinator
        try:
            ctrl_conn.send(("error", sid, repr(exc),
                            traceback.format_exc()))
        except Exception:
            pass


def _worker_loop(sid, cfg, specs, edge_conns, ctrl_conn, board_name) -> None:
    machine = build_machine(cfg)
    part = machine.fence
    owned = part.cores_of(sid)
    owned_set = set(owned)
    boundary = part.boundary_of(sid)
    proxies = part.proxies_of(sid)
    # Message batches may flow between *any* two shards (ctx.send is
    # unrestricted), not only mesh-adjacent ones; sorted order keeps
    # drain/ship iteration deterministic.
    peers = tuple(s for s in range(part.n_shards) if s != sid)
    board = SharedRoundBoard.attach(board_name, cfg.n_cores, part.n_shards)

    outbox: List[Message] = []

    def foreign_sink(msg: Message) -> None:
        if msg.kind is not MsgKind.USER:
            raise ShardBoundaryError(
                f"{msg.kind.name} message {msg.src}->{msg.dst} crosses the "
                f"shard {sid} boundary; run-time protocol messages carry "
                f"live objects and must stay shard-local (fence hole?)")
        outbox.append(msg)

    machine.set_shard_scope(owned_set, foreign_sink)
    machine.begin_run()
    roots = []  # (spec index, Task)
    for i, spec in enumerate(specs):
        if spec.root_core in owned_set:
            workload = spec.resolve()
            roots.append((i, machine.seed_root(workload.root, (),
                                               spec.root_core)))

    sanitizer = machine.sanitizer
    telemetry = machine.telemetry  # set by the builder when cfg.telemetry
    t_base = None  # wall-clock origin for this worker's host-round track
    profiler = None
    if telemetry is not None and "profile" in telemetry.parts:
        from ..obs.profiler import SamplingProfiler

        profiler = SamplingProfiler(telemetry).start()
    spatial = cfg.sync == "spatial"
    # Sub-round batching only pays under spatial sync: the unbounded
    # policy gates nothing, so one run to quiescence is already maximal.
    batch_cap = channels.ROUND_BATCH if spatial else 1
    # Plane publication (step 4) is a pure float64 gather/scatter from
    # the machine's struct-of-arrays plane into the shared board.
    soa = machine.soa
    owned_idx = np.asarray(owned, dtype=np.intp)
    boundary_idx = np.asarray(boundary, dtype=np.intp)
    counts = board.counts
    bytes_to: Dict[int, int] = {p: 0 for p in peers}
    busy = 0.0
    round_no = 0
    try:
        while True:
            cmd = ctrl_conn.recv()
            op = cmd[0]
            if op == "go":
                t0 = time.perf_counter()
                if t_base is None:
                    t_base = t0
                _, horizon, lift, waive = cmd
                if sanitizer is not None:
                    sanitizer.begin_round(lift)
                prev = (round_no - 1) & 1
                cur = round_no & 1
                # 1a. Owned idle cores adopt the coordinator fixpoint
                # (+ the window lift) raise-only; stale plane values
                # from earlier rounds are harmless for the same reason.
                if spatial:
                    adopt = board.adopt
                    for cid in owned:
                        v = adopt[cid]
                        if v != INF:
                            machine.adopt_shadow(cid, v + lift)
                    # 1b. Proxies anchor at the stronger of the owning
                    # worker's published time (plane, previous parity)
                    # and the fixpoint value, plus the lift.
                    pub_prev = board.published[prev]
                    for cid in proxies:
                        v = pub_prev[cid]
                        a = adopt[cid]
                        if a != INF and (v == INF or a > v):
                            v = a
                        if v != INF:
                            machine.set_proxy_time(cid, v + lift)
                else:
                    pub_prev = board.published[prev]
                    for cid in proxies:
                        v = pub_prev[cid]
                        if v != INF:
                            machine.set_proxy_time(cid, v)
                # 2. Drain last round's message batches.  Peers are
                # visited in sorted order and each batch preserves the
                # sender's emission order, so delivery is deterministic.
                for p in peers:
                    if counts[prev, p, sid]:
                        for fields in decode_batch(edge_conns[p].recv_bytes()):
                            machine.inject_message(*fields)
                # 3. Run the sub-round batch.
                progressed = bool(waive) and machine.run_shard_waiver()
                sub = 0
                while True:
                    ran = machine.run_shard_round(horizon)
                    progressed = ran or progressed
                    sub += 1
                    if (outbox or sub >= batch_cap
                            or not machine.shard_has_work()):
                        break
                    # A further sub-round can only differ if a shadow
                    # rose; the scoped fixpoint is idempotent, so this
                    # terminates (run -> raise -> run -> no raise).
                    if not machine.refresh_shard_shadows():
                        break
                # 4. Publish planes, ship batches, report status.
                vt_plane = board.vtime
                act_plane = board.active
                pub_cur = board.published[cur]
                vt_plane[owned_idx] = soa.vtime_np[owned_idx]
                act_plane[owned_idx] = soa.active_np[owned_idx]
                pub_cur[boundary_idx] = soa.published_np[boundary_idx]
                sent = len(outbox)
                if sent:
                    by_peer: Dict[int, list] = {p: [] for p in peers}
                    for msg in outbox:
                        by_peer[part.owner_of(msg.dst)].append(msg)
                    outbox.clear()
                    for p in peers:
                        counts[cur, sid, p] = len(by_peer[p])
                        if by_peer[p]:
                            blob = encode_batch(by_peer[p])
                            bytes_to[p] += len(blob)
                            edge_conns[p].send_bytes(blob)
                else:
                    counts[cur, sid, :] = 0
                round_no += 1
                dt = time.perf_counter() - t0
                busy += dt
                if telemetry is not None:
                    telemetry.host_rounds.append((round_no - 1,
                                                  t0 - t_base, dt))
                    telemetry.phase = "idle"  # waiting for the next "go"
                ctrl_conn.send(("status", progressed, sent,
                                machine.live_tasks,
                                machine.shard_min_time()))
            elif op == "snapshot":
                # Round barrier: no slice in flight, inboxes and planes
                # frozen — the safe point for checkpoint capture
                # (repro.checkpoint).  Capture is a pure read.
                from ..checkpoint.state import capture_machine_state

                ctrl_conn.send(("state", capture_machine_state(machine)))
            elif op == "stop":
                machine.finish_run()
                results = {i: task.result for i, task in roots}
                finishes = {i: task.finish_time for i, task in roots}
                if profiler is not None:
                    profiler.stop()  # folds samples into the snapshot
                obs = (telemetry.snapshot()
                       if telemetry is not None else None)
                ctrl_conn.send(("done", machine.stats, results, finishes,
                                bytes_to, busy, machine.trace, obs))
                return
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown coordinator command {op!r}")
    finally:
        board.close()
