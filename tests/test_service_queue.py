"""Job queue semantics: lifecycle, caching, dedupe, timeouts, drain.

The expensive end-to-end properties (digest parity with ``repro run``)
live in ``tests/test_service_api.py``; here the queue itself is under
test, with a monkeypatched executor wherever a real simulation would
only add wall time.  Jobs run in forked processes, so a patched
executor runs in the job's process: it talks to the test through
files, never through an object of the test's memory.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import pytest

import repro.service.queue as queue_mod
from repro.service import JobQueue, QueueFullError, ResultStore, resolve_spec

FORK = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patched executors reach only forked job processes")
PROC = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                          reason="lists processes from /proc")

SPEC = {
    "arch": {"preset": "shared_mesh", "n_cores": 9},
    "workload": {"benchmark": "quicksort", "scale": "tiny", "seed": 0},
}


def _spec(seed=0, **options):
    payload = {"arch": dict(SPEC["arch"]),
               "workload": dict(SPEC["workload"], seed=seed)}
    if options:
        payload["options"] = options
    return resolve_spec(payload)


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "cache"))


def make_queue(store, **kwargs):
    kwargs.setdefault("workers", 2)
    return JobQueue(store, **kwargs)


def gated(gate):
    """An executor that returns ``{}`` once the file ``gate`` exists."""
    def execute(spec, *_):
        while not os.path.exists(gate):
            time.sleep(0.01)
        return {}
    return execute


def touch(path):
    with open(path, "w"):
        pass


class TestLifecycle:
    def test_runs_to_done_and_persists(self, store):
        jq = make_queue(store)
        try:
            job = jq.submit(_spec())
            assert job.wait(120) and job.state == "done"
            assert job.document["result"]["verified"] is True
            assert job.document["result"]["work_vtime"] > 0
            assert job.document["spec_hash"] == job.spec.spec_hash
            assert store.get(job.spec.spec_hash) == job.document
            assert job.summary()["state"] == "done"
            assert jq.counts()["done"] == 1
        finally:
            jq.shutdown()

    @FORK
    def test_failure_is_structured_not_fatal(self, store, monkeypatch):
        jq = make_queue(store, workers=1)
        try:
            monkeypatch.setattr(
                queue_mod, "_execute",
                lambda *_: (_ for _ in ()).throw(RuntimeError("boom")))
            job = jq.submit(_spec())
            assert job.wait(30) and job.state == "failed"
            assert job.error == {"type": "RuntimeError", "message": "boom"}
            assert job.spec.spec_hash not in store  # failures never cached
            assert jq.registry.counters["service.failures"] == 1
        finally:
            jq.shutdown()


    def test_refused_process_fails_the_job_not_the_pool(self, store,
                                                        monkeypatch):
        jq = make_queue(store, workers=1)
        real = jq._ctx.Process
        refusals = []

        def refuse_once(*args, **kwargs):
            proc = real(*args, **kwargs)
            if not refusals:
                refusals.append(proc)

                def start():
                    raise OSError(12, "Cannot allocate memory")
                proc.start = start
            return proc

        monkeypatch.setattr(jq._ctx, "Process", refuse_once)
        try:
            fds = self._open_fds()
            first = jq.submit(_spec(seed=1))
            assert first.wait(30) and first.state == "failed"
            assert first.error == {"type": "OSError",
                                   "message": "[Errno 12] Cannot allocate "
                                              "memory"}
            assert self._open_fds() == fds  # its pipe is closed
            second = jq.submit(_spec(seed=2))
            assert second.wait(120) and second.state == "done"
            assert jq.registry.counters["service.simulations_started"] == 1
        finally:
            jq.shutdown()

    @staticmethod
    def _open_fds():
        fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") \
            else "/dev/fd"
        return len(os.listdir(fd_dir))


class TestCacheAndDedupe:
    def test_second_submission_is_exact_cache_hit(self, store):
        jq = make_queue(store)
        try:
            first = jq.submit(_spec())
            assert first.wait(120) and first.state == "done"
            second = jq.submit(_spec())
            assert second.finished and second.cache_hit
            assert second.job_id != first.job_id
            # Bit-identical payload, and no new simulation was dispatched.
            assert second.document == first.document
            assert jq.registry.counters["service.simulations_started"] == 1
            assert jq.registry.counters["service.cache_hits"] == 1
        finally:
            jq.shutdown()

    def test_hit_document_is_read_from_the_store_not_held(self, store):
        store.put(_spec().spec_hash, {"result": {"answer": 42}})
        jq = make_queue(store, workers=1)
        try:
            job = jq.submit(_spec())
            assert job.cache_hit and "document" not in vars(job)
            first, second = job.document, job.document
            assert first == second == {"result": {"answer": 42}}
            assert first is not second  # parsed per read, nothing cached
        finally:
            jq.shutdown()

    def test_indexed_hit_costs_bookkeeping_not_a_document(self, store):
        # A real stored document (~3 KB of JSON, ~15 KB parsed): the
        # index must not keep one per hit — ≈ 20 KB/hit did, ≈ 80 MB at
        # MAX_JOBS_INDEXED.  What stays is the Job, its ResolvedSpec
        # and its lock/event: ~6 KB.
        jq = make_queue(store, workers=1)
        try:
            assert jq.submit(_spec()).wait(120)
            hits = 1000
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(hits):
                    assert jq.submit(_spec()).cache_hit
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(jq.jobs()) == hits + 1
            assert grown / hits < 8 * 1024, grown / hits
        finally:
            jq.shutdown()

    def test_truncated_entry_is_resimulated_never_served(self, store):
        jq = make_queue(store, workers=1)
        try:
            with open(store.path_for(_spec().spec_hash), "w") as fh:
                fh.write('{"truncated": ')
            job = jq.submit(_spec())
            assert not job.cache_hit
            assert job.wait(120) and job.state == "done"
            assert job.document["result"]["verified"] is True
            assert jq.registry.counters["service.simulations_started"] == 1
            assert jq.registry.counters["service.cache_hits"] == 0
        finally:
            jq.shutdown()

    @FORK
    def test_concurrent_duplicates_collapse_to_one_simulation(
            self, store, tmp_path, monkeypatch):
        gate = str(tmp_path / "release")
        original = queue_mod._execute

        def held(spec, *args):
            gated(gate)(spec)
            return original(spec, *args)

        monkeypatch.setattr(queue_mod, "_execute", held)
        jq = make_queue(store, workers=1)
        try:
            jobs = [jq.submit(_spec()) for _ in range(6)]
            assert len({j.job_id for j in jobs}) == 1  # all the same job
            assert jobs[0].deduped
            touch(gate)
            assert jobs[0].wait(120) and jobs[0].state == "done"
            assert jq.registry.counters["service.simulations_started"] == 1
            assert jq.registry.counters["service.deduped"] == 5
        finally:
            touch(gate)
            jq.shutdown()

    def test_different_specs_do_not_dedupe(self, store):
        jq = make_queue(store)
        try:
            a, b = jq.submit(_spec(seed=0)), jq.submit(_spec(seed=1))
            assert a.job_id != b.job_id
            assert a.wait(120) and b.wait(120)
            assert a.document["result"] != b.document["result"] or \
                a.document["spec"] != b.document["spec"]
            assert jq.registry.counters["service.simulations_started"] == 2
        finally:
            jq.shutdown()


def _forks():
    """Pids of the living processes forked from this one or its forks:
    they share its command line (read from /proc).  A job process's
    shard workers count even after the job process died and left them
    to init."""
    with open("/proc/self/cmdline", "rb") as fh:
        mine = fh.read()
    found = set()
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as fh:
                cmdline = fh.read()
            with open(f"/proc/{name}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if cmdline == mine and state != "Z":
            found.add(int(name))
    return found


def _shm_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _settles(check, within=5.0):
    deadline = time.monotonic() + within
    while not check() and time.monotonic() < deadline:
        time.sleep(0.02)
    return check()


class TestTimeoutAndBackpressure:
    @FORK
    def test_timeout_fails_job_and_discards_late_result(self, store,
                                                        tmp_path,
                                                        monkeypatch):
        # The job's process is stopped at the limit, so the result it
        # would have produced a second later never exists.
        finished = str(tmp_path / "finished")

        def slow(spec, *_):
            time.sleep(1.0)
            touch(finished)
            return {"late": True}

        monkeypatch.setattr(queue_mod, "_execute", slow)
        jq = make_queue(store, workers=1)
        try:
            job = jq.submit(_spec(timeout_s=0.2))
            assert job.wait(30) and job.state == "failed"
            assert job.error["type"] == "timeout"
            assert jq.registry.counters["service.timeouts"] == 1
            time.sleep(1.5)
            assert not os.path.exists(finished)  # killed before the end
            assert job.state == "failed"
            assert job.document is None
            assert job.spec.spec_hash not in store
        finally:
            jq.shutdown()

    @PROC
    def test_timeout_stops_the_simulation_itself(self, store):
        # ~5 s of simulation under a 0.5 s limit: the limit is the run's
        # budget, so the job's process ends with the job instead of
        # simulating on to the run's natural end.
        spec = resolve_spec({
            "arch": {"preset": "shared_mesh", "n_cores": 64},
            "workload": {"benchmark": "quicksort", "scale": "paper"},
            "options": {"timeout_s": 0.5}})
        jq = make_queue(store, workers=1)
        try:
            before = _forks()
            job = jq.submit(spec)
            assert job.wait(30) and job.state == "failed"
            assert job.error["type"] == "timeout"
            assert not _forks() - before
            assert jq.registry.counters["service.timeouts"] == 1
            assert jq.registry.counters["service.failures"] == 0
            assert job.spec.spec_hash not in store
        finally:
            jq.shutdown()

    @PROC
    @FORK
    @pytest.mark.parametrize("checkpointed", [True, False],
                             ids=["checkpointed", "plain"])
    def test_overrun_sharded_job_is_killed_with_its_workers(
            self, store, monkeypatch, checkpointed):
        # The run's own budget cannot fire while the coordinator is
        # parked (in the checkpoint seam, or in its per-round fixpoint),
        # so the queue stops the job's process: its shard workers and
        # its shared-memory board must go with it.
        from repro.parallel.coordinator import ShardedMachine

        def park(*_):
            time.sleep(60)

        if checkpointed:
            monkeypatch.setattr(queue_mod, "_after_checkpoint", park)
        else:
            monkeypatch.setattr(ShardedMachine, "_refresh_adopt_plane",
                                park)
        options = {"timeout_s": 1.0}
        if checkpointed:
            options["checkpoint_every"] = 2000
        spec = resolve_spec({
            "arch": {"preset": "shared_mesh", "n_cores": 16,
                     "backend": "sharded", "shards": 2},
            "workload": {"benchmark": "quicksort", "scale": "small"},
            "options": options})
        jq = make_queue(store, workers=1)
        try:
            before, shm_before = _forks(), _shm_segments()
            job = jq.submit(spec)
            assert job.wait(60) and job.state == "failed"
            assert job.error["type"] == "timeout"
            assert not _forks() - before      # no job, no shard worker
            assert _settles(lambda: not _shm_segments() - shm_before)
            ckpt = jq._checkpoint_path(job)
            assert job.resumable == os.path.exists(ckpt) == checkpointed
            assert jq.registry.counters["service.timeouts"] == 1
            assert job.spec.spec_hash not in store
        finally:
            jq.shutdown()

    @PROC
    @FORK
    def test_killed_sharded_job_crashes_and_leaves_nothing(self, store,
                                                           monkeypatch):
        # A job process killed outright (SIGKILL, the OOM killer) cannot
        # unwind.  Its shard workers must see it gone, unlink the board
        # and exit; the queue must see the death although the workers
        # hold a copy of the job's pipe, long before the job's limit.
        from repro.parallel.coordinator import ShardedMachine

        monkeypatch.setattr(ShardedMachine, "_refresh_adopt_plane",
                            lambda *_: time.sleep(60))
        spec = resolve_spec({
            "arch": {"preset": "shared_mesh", "n_cores": 16,
                     "backend": "sharded", "shards": 2},
            "workload": {"benchmark": "quicksort", "scale": "small"},
            "options": {"timeout_s": 60}})
        jq = make_queue(store, workers=1)
        try:
            before, shm_before = _forks(), _shm_segments()
            job = jq.submit(spec)
            # The job's process and its two shard workers.
            assert _settles(lambda: len(_forks() - before) == 3, 30)
            with jq._lock:
                ((_, proc),) = jq._procs.values()
            os.kill(proc.pid, signal.SIGKILL)
            assert job.wait(10) and job.state == "failed"
            assert job.error["type"] == "crashed"
            assert _settles(lambda: not _forks() - before)
            assert _settles(lambda: not _shm_segments() - shm_before)
            assert jq.registry.counters["service.failures.crashed"] == 1
        finally:
            jq.shutdown()

    @FORK
    def test_run_budget_and_join_expiry_fail_the_job_alike(self, store,
                                                        monkeypatch):
        # The run's own SimTimeout (here: before the deadline) maps
        # to the same error type, message and counter as the deadline.
        from repro.core.errors import SimTimeout

        def spent(*_):
            raise SimTimeout("run exceeded its wall-clock budget")

        monkeypatch.setattr(queue_mod, "_execute", spent)
        jq = make_queue(store, workers=1)
        try:
            job = jq.submit(_spec(timeout_s=30))
            assert job.wait(30) and job.state == "failed"
            assert job.error == {
                "type": "timeout",
                "message": "job exceeded 30s wall-clock limit"}
            assert not job.resumable
            assert jq.registry.counters["service.timeouts"] == 1
            assert jq.registry.counters["service.failures"] == 0
        finally:
            jq.shutdown()

    @FORK
    def test_queue_full_raises(self, store, tmp_path, monkeypatch):
        gate = str(tmp_path / "release")
        monkeypatch.setattr(queue_mod, "_execute", gated(gate))
        jq = make_queue(store, workers=1, depth=1)
        try:
            jq.submit(_spec(seed=1))            # occupies the worker
            time.sleep(0.2)
            jq.submit(_spec(seed=2))            # occupies the one queue slot
            with pytest.raises(QueueFullError):
                jq.submit(_spec(seed=3))
            assert jq.registry.counters["service.rejected_full"] == 1
        finally:
            touch(gate)
            jq.shutdown()


class TestCheckpointRecovery:
    """A checkpointing job that dies mid-run must *resume*, not restart.

    The ``checkpoint_every`` option persists a snapshot beside the result
    cache at every boundary; ``repro.service.queue._after_checkpoint`` is
    the test seam for killing a job right after a persist.  It runs in
    the job's process, so it leaves its marks in a file.
    """

    CKPT = {"checkpoint_every": 2000}

    @staticmethod
    def _sans_host(document):
        # Uninterrupted vs resumed documents may differ only in the
        # host-observation section (wall clock).
        return {k: v for k, v in document.items() if k != "host"}

    def _reference_document(self, tmp_path):
        ref_store = ResultStore(str(tmp_path / "ref-cache"))
        jq = make_queue(ref_store, workers=1)
        try:
            job = jq.submit(_spec())
            assert job.wait(120) and job.state == "done"
            return job.document
        finally:
            jq.shutdown()

    @staticmethod
    def _die_once(marker):
        """A seam that fails the first job to persist a checkpoint and
        writes the snapshot's path to ``marker``."""
        def die_once(path):
            if not os.path.exists(marker):
                with open(marker, "w") as fh:
                    fh.write(path)
                raise RuntimeError("worker killed after checkpoint")
        return die_once

    @staticmethod
    def _marks(marker):
        if not os.path.exists(marker):
            return []
        with open(marker) as fh:
            return [fh.read()]

    @FORK
    def test_killed_job_resumes_to_identical_result(self, store, tmp_path,
                                                    monkeypatch):
        reference = self._reference_document(tmp_path)
        marker = str(tmp_path / "crashed")
        monkeypatch.setattr(queue_mod, "_after_checkpoint",
                            self._die_once(marker))
        jq = make_queue(store, workers=1)
        try:
            counters = jq.registry.counters
            first = jq.submit(_spec(**self.CKPT))
            assert first.wait(120) and first.state == "failed"
            assert first.resumable
            assert first.summary()["resumable"] is True
            crashes = self._marks(marker)
            assert crashes and os.path.exists(crashes[0])  # snapshot kept
            assert counters["service.simulations_started"] == 1

            # Resubmitting the same spec resumes from the snapshot.
            second = jq.submit(_spec(**self.CKPT))
            assert second.job_id != first.job_id
            assert second.wait(120) and second.state == "done"
            assert counters["service.resumed_from_checkpoint"] == 1
            assert counters["service.simulations_started"] == 2
            assert not os.path.exists(crashes[0])  # consumed on success
            # Bit-identical to an uninterrupted run, wall clock aside.
            assert self._sans_host(second.document) == \
                self._sans_host(reference)

            # The completed result is cached: a third submission is a
            # pure cache hit with zero new simulation work.
            third = jq.submit(_spec(**self.CKPT))
            assert third.finished and third.cache_hit
            assert third.document == second.document
            assert counters["service.simulations_started"] == 2
            assert counters["service.resumed_from_checkpoint"] == 1
        finally:
            jq.shutdown()

    @FORK
    def test_version_1_snapshot_is_refused_and_job_runs_from_zero(
            self, store, tmp_path, monkeypatch):
        """A snapshot from before the config lost its kernel/inbox
        fields must surface as a version error ("unusable: start
        fresh"), never as a TypeError from ArchConfig(**config)."""
        import struct

        from repro.checkpoint import CheckpointVersionError, load_snapshot
        from repro.checkpoint.codec import MAGIC

        reference = self._reference_document(tmp_path)
        marker = str(tmp_path / "crashed")
        monkeypatch.setattr(queue_mod, "_after_checkpoint",
                            self._die_once(marker))
        jq = make_queue(store, workers=1)
        try:
            counters = jq.registry.counters
            first = jq.submit(_spec(**self.CKPT))
            assert first.wait(120) and first.state == "failed"
            crashes = self._marks(marker)
            # Age the retained snapshot: stamp a version-1 header on it.
            with open(crashes[0], "r+b") as fh:
                fh.seek(len(MAGIC))
                fh.write(struct.pack("<I", 1))
            with pytest.raises(CheckpointVersionError):
                load_snapshot(crashes[0])

            second = jq.submit(_spec(**self.CKPT))
            assert second.wait(120) and second.state == "done"
            assert counters["service.resumed_from_checkpoint"] == 0
            assert counters["service.simulations_started"] == 2
            assert self._sans_host(second.document) == \
                self._sans_host(reference)
        finally:
            jq.shutdown()

    @FORK
    def test_timeout_keeps_checkpoint_and_marks_resumable(self, store,
                                                          monkeypatch):
        def hang_after_persist(path):
            time.sleep(30)  # park the job past its limit

        monkeypatch.setattr(queue_mod, "_after_checkpoint",
                            hang_after_persist)
        jq = make_queue(store, workers=1)
        try:
            job = jq.submit(_spec(timeout_s=1.0, **self.CKPT))
            assert job.wait(60) and job.state == "failed"
            assert job.error["type"] == "timeout"
            assert "checkpoint retained" in job.error["message"]
            assert job.resumable
            assert os.path.exists(jq._checkpoint_path(job))
            assert jq.registry.counters["service.timeouts"] == 1
            assert jq.registry.counters["service.timeouts_resumable"] == 1
            assert job.spec.spec_hash not in store  # no partial result
        finally:
            jq.shutdown()

    @FORK
    def test_timeout_without_checkpoint_is_not_resumable(self, store,
                                                         monkeypatch):
        monkeypatch.setattr(queue_mod, "_execute",
                            lambda *_: time.sleep(30) or {})
        jq = make_queue(store, workers=1)
        try:
            job = jq.submit(_spec(timeout_s=0.2))
            assert job.wait(30) and job.state == "failed"
            assert job.error["type"] == "timeout"
            assert not job.resumable
            assert "timeouts_resumable" not in jq.registry.counters or \
                jq.registry.counters["service.timeouts_resumable"] == 0
        finally:
            jq.shutdown()


#: Run in a fresh interpreter: serial and sharded jobs, one of them
#: checkpointing with live telemetry, each job process recording what
#: it imported into ``argv[1]``.
_IMPORT_PROBE = textwrap.dedent("""
    import json, os, sys
    import repro.service.queue as queue_mod
    from repro.service import JobQueue, ResultStore, resolve_spec

    out = sys.argv[1]
    real_main = queue_mod._job_main

    def recording_main(*args):
        before = set(sys.modules)
        real_main(*args)
        with open(os.path.join(out, f"job-{os.getpid()}.json"), "w") as fh:
            json.dump(sorted(set(sys.modules) - before), fh)

    queue_mod._job_main = recording_main
    jq = JobQueue(ResultStore(os.path.join(out, "store")), workers=1)
    serial = {"preset": "shared_mesh", "n_cores": 9}
    sharded = {"preset": "shared_mesh", "n_cores": 16,
               "backend": "sharded", "shards": 2}
    for arch, benchmark, options in (
            (serial, "quicksort", {}),
            (sharded, "quicksort", {}),
            (serial, "connected_components",
             {"checkpoint_every": 500, "telemetry": "all"})):
        job = jq.submit(resolve_spec({
            "arch": arch, "options": options,
            "workload": {"benchmark": benchmark, "scale": "tiny"}}))
        assert job.wait(120) and job.state == "done", job.error
    jq.shutdown()
""")


@FORK
class TestJobProcesses:
    def test_job_process_imports_nothing(self, tmp_path):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), "..", "src"),
                        os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                       env=env, check=True, timeout=300)
        records = sorted(tmp_path.glob("job-*.json"))
        assert len(records) == 3
        for record in records:
            assert json.loads(record.read_text()) == [], record.name

    def test_two_workers_run_two_jobs_at_once(self, store, tmp_path,
                                              monkeypatch):
        # Each job announces itself and waits (10 s at most) for the
        # other: both arrive only when both run at once, each in a
        # process of its own.
        def meet(spec, *_):
            touch(str(tmp_path / f"arrived-{os.getpid()}"))
            deadline = time.monotonic() + 10
            while (len(list(tmp_path.glob("arrived-*"))) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            return {"pid": os.getpid(),
                    "met": len(list(tmp_path.glob("arrived-*")))}

        monkeypatch.setattr(queue_mod, "_execute", meet)
        jq = make_queue(store, workers=2)
        try:
            a, b = jq.submit(_spec(seed=1)), jq.submit(_spec(seed=2))
            assert a.wait(60) and b.wait(60)
            docs = [a.document, b.document]
            assert [d["met"] for d in docs] == [2, 2]
            pids = {d["pid"] for d in docs}
            assert len(pids) == 2 and os.getpid() not in pids
            overlap = (min(a.finished_at, b.finished_at)
                       - max(a.started_at, b.started_at))
            assert overlap > 0
        finally:
            jq.shutdown()

    def test_more_workers_than_cores_lose_no_count(self, store,
                                                   monkeypatch):
        # Pool threads share the counters and the process table.
        workers = 2 * (os.cpu_count() or 1) + 1
        monkeypatch.setattr(queue_mod, "_execute", lambda *_: {})
        jq = make_queue(store, workers=workers, depth=64)
        try:
            jobs = [jq.submit(_spec(seed=s)) for s in range(4 * workers)]
            assert all(j.wait(60) and j.state == "done" for j in jobs)
            counters = jq.registry.counters
            assert counters["service.simulations_started"] == len(jobs)
            assert counters["service.completed"] == len(jobs)
            assert not jq._procs
        finally:
            jq.shutdown()


class TestShutdown:
    def test_drain_waits_for_inflight_jobs(self, store):
        jq = make_queue(store, workers=1)
        job = jq.submit(_spec())
        assert jq.shutdown(drain=True, timeout=120) is True
        assert job.state == "done"
        assert store.get(job.spec.spec_hash) is not None

    @PROC
    @FORK
    def test_no_drain_fails_queued_jobs(self, store, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_mod, "_execute",
                            gated(str(tmp_path / "never")))
        jq = make_queue(store, workers=1, depth=4)
        before = _forks()
        running = jq.submit(_spec(seed=1))
        time.sleep(0.2)
        queued = jq.submit(_spec(seed=2))
        jq.shutdown(drain=False, timeout=5)
        assert queued.state == "failed"
        assert queued.error["type"] == "shutdown"
        assert running.job_id != queued.job_id
        # The running job is stopped too: no job outlives its queue.
        assert running.state == "failed"
        assert running.error["type"] == "shutdown"
        assert not _forks() - before

    @PROC
    @FORK
    def test_drain_timeout_starts_no_queued_job(self, store, tmp_path,
                                                monkeypatch):
        # The drain gives up on a job that never ends: it is stopped,
        # and the job queued behind it fails without ever starting.
        monkeypatch.setattr(queue_mod, "_execute",
                            gated(str(tmp_path / "never")))
        jq = make_queue(store, workers=1, depth=4)
        before = _forks()
        running = jq.submit(_spec(seed=1))
        assert _settles(lambda: _forks() - before)
        queued = jq.submit(_spec(seed=2))
        assert jq.shutdown(drain=True, timeout=0.5) is False
        assert running.error["type"] == "shutdown"
        assert queued.error == {"type": "shutdown",
                                "message": "queue shut down before "
                                           "execution"}
        assert not _forks() - before
        time.sleep(0.5)  # a pool thread still taking jobs forks by now
        assert not _forks() - before
        assert jq.registry.counters["service.simulations_started"] == 1

    @PROC
    @FORK
    def test_shutdown_reaches_a_job_not_yet_forked(self, store, tmp_path,
                                                   monkeypatch):
        # A pool thread has taken the job from the FIFO but not yet
        # forked it when shutdown() reads the process table: the job
        # must still never run.
        monkeypatch.setattr(queue_mod, "_execute",
                            gated(str(tmp_path / "never")))
        jq = make_queue(store, workers=1)
        real_start = jq._start_process
        dequeued, proceed = threading.Event(), threading.Event()

        def late_start(job):
            dequeued.set()
            proceed.wait(10)
            return real_start(job)

        monkeypatch.setattr(jq, "_start_process", late_start)
        before = _forks()
        job = jq.submit(_spec())
        assert dequeued.wait(10)
        stopper = threading.Thread(target=jq.shutdown,
                                   kwargs={"drain": False, "timeout": 5})
        stopper.start()
        time.sleep(0.3)  # shutdown() has read the process table
        proceed.set()
        stopper.join(30)
        assert job.error == {"type": "shutdown",
                             "message": "queue shut down before execution"}
        assert _settles(lambda: not _forks() - before)
        assert jq.registry.counters["service.simulations_started"] == 0

    def test_submit_after_shutdown_rejected(self, store):
        jq = make_queue(store)
        jq.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            jq.submit(_spec())
