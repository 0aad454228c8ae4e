"""Escalation-ladder tests for the sharded coordinator.

The coordinator's stall handling (relief round -> waiver round ->
deadlock) is driven here with a *scripted stub worker*: the real
``worker_main`` is monkeypatched out (fork workers inherit the patch)
and replaced by a loop that replies with pre-scripted status tuples and
asserts the ``waive`` flag the coordinator sent each round.  That keeps
the ladder's control flow — which in real runs depends on delicate
cross-shard timing — fully deterministic and observable through
``backend.protocol``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import traceback

import pytest

import repro.parallel.channels as channels
import repro.parallel.coordinator as coordinator
from repro.arch import build_backend, shared_mesh
from repro.core.errors import SimDeadlock, SimError
from repro.core.fabric import INF
from repro.core.stats import SimStats
from repro.parallel import WorkloadSpec

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

pytestmark = pytest.mark.skipif(
    not FORK_AVAILABLE,
    reason="stub-worker tests need fork workers (the monkeypatched "
           "worker_main must be inherited, not re-imported)")


def scripted_worker(script):
    """Build a ``worker_main`` replacement that replays ``script``.

    Each entry is ``(progressed, sent, live, min_time, expect_waive)``:
    the first four become the status reply for that round; the fifth is
    asserted against the ``waive`` flag the coordinator actually sent.
    A mismatch is shipped back as a worker error, which ``_expect``
    surfaces as :class:`SimError` — failing whichever outcome the test
    expected.
    """
    entries = list(script)

    def stub(sid, cfg, specs, edge_conns, ctrl_conn, board_name):
        try:
            step = 0
            while True:
                cmd = ctrl_conn.recv()
                if cmd[0] == "go":
                    progressed, sent, live, min_time, expect_waive = \
                        entries[step]
                    step += 1
                    if bool(cmd[3]) != expect_waive:
                        raise AssertionError(
                            f"round {step}: coordinator sent "
                            f"waive={cmd[3]!r}, script expected "
                            f"{expect_waive}")
                    ctrl_conn.send(
                        ("status", progressed, sent, live, min_time))
                elif cmd[0] == "stop":
                    # The worker's 8-tuple: no trace, no telemetry.
                    ctrl_conn.send(("done", SimStats(n_cores=cfg.n_cores),
                                    {0: "stub-result"}, {0: 42.0}, {},
                                    0.0, None, None))
                    return
        except BaseException as exc:
            ctrl_conn.send(("error", sid, repr(exc),
                            traceback.format_exc()))

    return stub


def stub_backend(monkeypatch, script, **overrides):
    monkeypatch.setattr(coordinator, "worker_main", scripted_worker(script))
    # Lockstep window: the scripted rounds ship no lift.
    monkeypatch.setattr(channels, "WINDOW_MAX_FACTOR", 1.0)
    cfg = dataclasses.replace(
        shared_mesh(8), backend="sharded", shards=1, **overrides)
    return build_backend(cfg)


SPECS = [WorkloadSpec("quicksort", scale="tiny", root_core=0)]


def test_full_ladder_ends_in_deadlock(monkeypatch):
    # Three consecutive no-progress rounds: relief after the first,
    # a forced-slice waiver on the third, and only when even the waiver
    # produces nothing does the coordinator declare deadlock.
    backend = stub_backend(monkeypatch, [
        (False, 0, 1, 10.0, False),   # stall 1 -> relief round follows
        (False, 0, 1, 10.0, False),   # stall 2 -> waiver round follows
        (False, 0, 1, 10.0, True),    # forced slice still yields nothing
    ])
    with pytest.raises(SimDeadlock) as exc_info:
        backend.run_workloads(SPECS, timeout=30.0)
    assert backend.protocol["rounds"] == 3
    assert backend.protocol["reliefs"] == 1
    assert backend.protocol["waivers"] == 1
    diag = exc_info.value.diagnostics
    assert diag["per_shard_live"] == [1]
    assert diag["per_shard_min_time"] == [10.0]


def test_relief_round_recovers(monkeypatch):
    # A stall that the unbounded-horizon relief round resolves: no
    # waiver is ever requested and the run completes normally.
    backend = stub_backend(monkeypatch, [
        (False, 0, 1, 10.0, False),   # stall 1 -> relief
        (True, 0, 1, 20.0, False),    # relief round makes progress
        (True, 0, 0, INF, False),     # drained: live hits zero
    ])
    results = backend.run_workloads(SPECS, timeout=30.0)
    assert results == ["stub-result"]
    assert backend.protocol["rounds"] == 3
    assert backend.protocol["reliefs"] == 1
    assert backend.protocol["waivers"] == 0
    assert backend.stats.completion_vtime == 42.0


def test_waiver_round_recovers(monkeypatch):
    # The relief round is not enough; the forced slice of the waiver
    # round is, and the ladder resets instead of deadlocking.
    backend = stub_backend(monkeypatch, [
        (False, 0, 1, 10.0, False),   # stall 1 -> relief
        (False, 0, 1, 10.0, False),   # stall 2 -> waiver
        (True, 0, 1, 30.0, True),     # forced slice unwedges the run
        (True, 0, 0, INF, False),     # drained
    ])
    results = backend.run_workloads(SPECS, timeout=30.0)
    assert results == ["stub-result"]
    assert backend.protocol["rounds"] == 4
    assert backend.protocol["reliefs"] == 1
    assert backend.protocol["waivers"] == 1


def test_infinite_min_time_is_instant_deadlock(monkeypatch):
    # A stalled round whose global minimum is already INF means no core
    # anywhere has a next event: the ladder is skipped entirely.
    backend = stub_backend(monkeypatch, [
        (False, 0, 1, INF, False),
    ])
    with pytest.raises(SimDeadlock):
        backend.run_workloads(SPECS, timeout=30.0)
    assert backend.protocol["rounds"] == 1
    assert backend.protocol["reliefs"] == 0
    assert backend.protocol["waivers"] == 0


def test_unbounded_sync_stall_is_final(monkeypatch):
    # The unbounded policy gates nothing, so there is no horizon to
    # relieve and no drift check to waive: its first stall is final.
    backend = stub_backend(monkeypatch, [
        (False, 0, 1, 50.0, False),
    ], sync="unbounded")
    with pytest.raises(SimDeadlock):
        backend.run_workloads(SPECS, timeout=30.0)
    assert backend.protocol["rounds"] == 1
    assert backend.protocol["reliefs"] == 0
    assert backend.protocol["waivers"] == 0


def test_script_mismatch_surfaces_as_worker_error(monkeypatch):
    # Self-check of the harness: a waive-flag disagreement inside the
    # stub must surface as a worker error, not hang or pass silently.
    backend = stub_backend(monkeypatch, [
        (False, 0, 1, 10.0, True),    # round 1 never waives
    ])
    with pytest.raises(SimError, match="AssertionError"):
        backend.run_workloads(SPECS, timeout=30.0)
