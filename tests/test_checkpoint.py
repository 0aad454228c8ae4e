"""Split-run equivalence of the checkpoint subsystem.

The correctness contract under test (docs/checkpoint.md): for any
workload x backend,

    run(0..end)  ==  run(0..k); snapshot; restore; run(k..end)

bit-identically — results, completion virtual time, per-kind message
counts, full deterministic stats and the canonical trace digest.
Checkpointing itself must be observation-only (a checkpointed run
equals a straight run), restores must *verify* the replayed state
against the captured one and fail loudly on divergence, and restoring
a sharded snapshot onto a different shard count must be refused.
"""

import dataclasses
import io
import random
from array import array

import pytest

from repro.arch import shared_mesh
from repro.checkpoint import (CheckpointError, CheckpointMismatchError,
                              load_snapshot, resume_run, run_checkpointed,
                              run_serial_checkpointed, run_straight,
                              save_snapshot, split_run)
from repro.parallel import WorkloadSpec

QUICKSORT = [WorkloadSpec("quicksort", scale="tiny", seed=3, root_core=0)]
PAIR = [
    WorkloadSpec("", root_core=0,
                 factory="repro.verify.fuzz_roots:pingpong",
                 kwargs={"peer": 10, "rounds": 3}),
    WorkloadSpec("", root_core=10,
                 factory="repro.verify.fuzz_roots:echo",
                 kwargs={"rounds": 3}),
]


def serial_cfg(**kw):
    kw.setdefault("collect_trace", True)
    return dataclasses.replace(shared_mesh(16), seed=7, **kw)


def sharded_cfg(**kw):
    return dataclasses.replace(shared_mesh(16), backend="sharded", shards=4,
                               collect_trace=True, seed=7, **kw)


def det(outcome):
    """Deterministic section of an outcome document."""
    return {k: v for k, v in outcome.items() if k != "host"}


class TestSerialSplitRun:
    def test_split_equals_straight(self):
        cfg = serial_cfg()
        straight = run_straight(cfg, QUICKSORT)
        snap, chk, resumed = split_run(cfg, QUICKSORT,
                                       straight["completion"] * 0.4)
        assert snap is not None, "run finished before the boundary"
        assert det(chk) == det(straight)
        assert det(resumed) == det(straight)
        assert resumed["digest"] == straight["digest"] is not None

    def test_messaging_workload_split(self):
        cfg = serial_cfg()
        straight = run_straight(cfg, PAIR)
        snap, chk, resumed = split_run(cfg, PAIR, straight["completion"] / 2)
        assert snap is not None
        assert det(resumed) == det(straight)

    def test_every_boundary_resumes_identically(self):
        cfg = serial_cfg()
        straight = run_straight(cfg, QUICKSORT)
        snaps = []
        chk = run_serial_checkpointed(cfg, QUICKSORT, 1500.0, snaps.append)
        assert det(chk) == det(straight)
        assert len(snaps) >= 3, "interval too coarse for this workload"
        for snap in snaps:
            assert det(resume_run(snap)) == det(straight)

    def test_snapshot_file_round_trip(self, tmp_path):
        cfg = serial_cfg()
        straight = run_straight(cfg, QUICKSORT)
        snap, _, _ = split_run(cfg, QUICKSORT, 2000.0)
        path = str(tmp_path / "run.ckpt")
        save_snapshot(snap, path)
        loaded = load_snapshot(path)
        assert loaded.state_hash == snap.state_hash
        assert det(resume_run(path)) == det(straight)

    def test_interval_must_be_positive(self):
        with pytest.raises(CheckpointError):
            run_serial_checkpointed(serial_cfg(), QUICKSORT, 0.0,
                                    lambda s: None)

    def test_tampered_state_fails_verification(self):
        cfg = serial_cfg()
        snap, _, _ = split_run(cfg, QUICKSORT, 2000.0)
        state = snap.states[0]
        state["det"]["stats"]["context_switches"] += 1
        with pytest.raises(CheckpointMismatchError) as exc:
            resume_run(snap)
        assert "context_switches" in str(exc.value)

    def test_tampered_plane_bytes_fail_verification(self):
        cfg = serial_cfg()
        snap, _, _ = split_run(cfg, QUICKSORT, 2000.0)
        cols = snap.states[0]["det"]["columns"]
        raw = bytearray(cols["vtime"])
        raw[3] ^= 0x10
        cols["vtime"] = bytes(raw)
        with pytest.raises(CheckpointMismatchError):
            resume_run(snap)


class TestMachineApi:
    def test_snapshot_and_resume_methods(self):
        from repro.arch import build_machine
        from repro.checkpoint.state import verify_machine_state

        cfg = serial_cfg(collect_trace=False)
        machine = build_machine(cfg)
        machine.run(
            __import__("repro.workloads", fromlist=["get_workload"])
            .get_workload("quicksort", scale="tiny", seed=3).root,
            stop_at_vtime=2000.0)
        cap = machine.snapshot()
        assert set(cap) == {"det", "host"}
        verify_machine_state(cap, machine.snapshot())
        results = machine.resume_run()
        assert machine.live_tasks == 0
        assert results[0]["output"] == array("q", sorted(results[0]["output"]))

    def test_resume_before_run_is_an_error(self):
        from repro.arch import build_machine
        from repro.core.errors import SimError

        with pytest.raises(SimError):
            build_machine(serial_cfg()).resume_run()


class TestShardedSplitRun:
    def test_split_equals_straight(self):
        cfg = sharded_cfg()
        straight = run_straight(cfg, QUICKSORT)
        assert straight["protocol"]["rounds"] >= 2
        snap, chk, resumed = split_run(cfg, QUICKSORT, 2000.0)
        assert snap is not None and snap.kind == "sharded"
        assert len(snap.states) == 4  # one capture per shard
        assert det(chk) == det(straight)
        assert det(resumed) == det(straight)

    def test_cross_shard_messaging_split(self):
        cfg = sharded_cfg()
        straight = run_straight(cfg, PAIR)
        rounds = straight["protocol"]["rounds"]
        if rounds < 2:
            pytest.skip("run too short to split")
        snap, _, resumed = split_run(cfg, PAIR, straight["completion"] / 2)
        assert snap is not None
        assert det(resumed) == det(straight)

    def test_different_shard_count_is_refused(self):
        cfg = sharded_cfg()
        snap, _, _ = split_run(cfg, QUICKSORT, 2000.0)
        wrong = dataclasses.replace(snap,
                                    config=dict(snap.config, shards=2))
        with pytest.raises(CheckpointError) as exc:
            resume_run(wrong)
        assert "shard" in str(exc.value)

    def test_tampered_worker_state_fails_verification(self):
        cfg = sharded_cfg()
        snap, _, _ = split_run(cfg, QUICKSORT, 2000.0)
        snap.states[1]["det"]["stats"]["context_switches"] += 7
        with pytest.raises(CheckpointMismatchError) as exc:
            resume_run(snap)
        assert "shard 1" in str(exc.value)

    def test_resume_past_completed_run_fails_loudly(self):
        # A verify_at beyond the virtual time the run ever reaches means
        # the snapshot does not belong to this trajectory.
        cfg = sharded_cfg()
        straight = run_straight(cfg, QUICKSORT)
        snap, _, _ = split_run(cfg, QUICKSORT, 2000.0)
        late = dataclasses.replace(
            snap, boundary={"kind": "vtime",
                            "value": straight["completion"] + 50_000.0})
        with pytest.raises(CheckpointMismatchError):
            resume_run(late)


class TestOlderSnapshotsAreRefused:
    """Before version 3 a sharded boundary counted coordination rounds
    and the config carried ``worker_start_method``; neither may reach
    ``ArchConfig(**config)`` or be replayed as if it were a virtual
    time.  A version-3 capture still holds the ``inbox_len`` column and
    must be a version error, not a replay mismatch; a version-4 config
    still names the three retired round-protocol settings, and a
    version-5 config the five retired model-variant switches and the
    two-field shadow setting."""

    @pytest.mark.parametrize("old", [2, 3, 4, 5])
    def test_older_file_is_a_version_error(self, old, tmp_path):
        import struct

        from repro.checkpoint import (CHECKPOINT_VERSION,
                                      CheckpointVersionError)
        from repro.checkpoint.codec import MAGIC

        assert CHECKPOINT_VERSION == 6
        snap, _, _ = split_run(serial_cfg(), QUICKSORT, 2000.0)
        path = str(tmp_path / "old.ckpt")
        save_snapshot(snap, path)
        with open(path, "r+b") as fh:
            fh.seek(len(MAGIC))
            fh.write(struct.pack("<I", old))
        with pytest.raises(CheckpointVersionError, match=f"version {old}"):
            load_snapshot(path)
        with pytest.raises(CheckpointVersionError):
            resume_run(path)

    @pytest.mark.parametrize("cfg", [serial_cfg(), sharded_cfg()],
                             ids=["serial", "sharded"])
    def test_round_boundary_is_refused(self, cfg, tmp_path):
        snap, _, _ = split_run(cfg, QUICKSORT, 2000.0)
        assert snap.boundary == {"kind": "vtime", "value": 2000.0}
        rounds = dataclasses.replace(
            snap, boundary={"kind": "round", "value": 2})
        with pytest.raises(CheckpointError, match="virtual time"):
            resume_run(rounds)
        path = str(tmp_path / "rounds.ckpt")
        save_snapshot(rounds, path)
        with pytest.raises(CheckpointError, match="boundary"):
            load_snapshot(path)


class TestCheckpointedDispatch:
    def test_backend_dispatch(self):
        serial = run_checkpointed(serial_cfg(), QUICKSORT, 4000.0,
                                  lambda s: None)
        sharded = run_checkpointed(sharded_cfg(), QUICKSORT, 4000.0,
                                   lambda s: None)
        assert serial["backend"] == "serial"
        assert sharded["backend"] == "sharded"


class TestCli:
    def test_checkpoint_then_resume_match(self, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "cli.ckpt")
        out1, out2 = io.StringIO(), io.StringIO()
        assert main(["run", "quicksort", "--cores", "16", "--scale", "tiny",
                     "--checkpoint-every", "2000",
                     "--checkpoint", path], out=out1) == 0
        assert "checkpoints" in out1.getvalue()
        assert main(["run", "--resume", path], out=out2) == 0
        pick = lambda s: [ln for ln in s.splitlines()
                          if ln.startswith(("virtual time", "tasks started",
                                            "messages"))]
        assert pick(out1.getvalue()) == pick(out2.getvalue())
        assert "verified replay" in out2.getvalue()

    def test_checkpoint_every_requires_path(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "quicksort", "--checkpoint-every", "100"],
                 out=io.StringIO())

    def test_run_without_benchmark_or_resume_errors(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run"], out=io.StringIO())


class TestFuzzSnapshotMode:
    def test_deterministic_case_sample_passes(self):
        from repro.verify.fuzzer import generate_case, run_snapshot_case

        for i in range(4):
            seed = 77 * 1_000_003 + i
            case = generate_case(random.Random(seed), seed=seed)
            ok, report = run_snapshot_case(case, sanitize=False)
            assert ok, report
            assert report["mode"] == "snapshot"
            assert "serial_boundary" in report

    def test_cli_flag_wires_through(self):
        from repro.cli import main

        out = io.StringIO()
        assert main(["fuzz", "--snapshot", "--cases", "1", "--seed", "5",
                     "--no-sanitize"], out=out) == 0
        assert "snapshot" in out.getvalue()
