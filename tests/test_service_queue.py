"""Job queue semantics: lifecycle, caching, dedupe, timeouts, drain.

The expensive end-to-end properties (digest parity with ``repro run``)
live in ``tests/test_service_api.py``; here the queue itself is under
test, with a monkeypatched executor wherever a real simulation would
only add wall time.
"""

import os
import threading
import time
import tracemalloc

import pytest

from repro.service import JobQueue, QueueFullError, ResultStore, resolve_spec

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

    def test_failure_is_structured_not_fatal(self, store, monkeypatch):
        jq = make_queue(store, workers=1)
        try:
            monkeypatch.setattr(
                JobQueue, "_execute",
                lambda self, job: (_ for _ in ()).throw(RuntimeError("boom")))
            job = jq.submit(_spec())
            assert job.wait(30) and job.state == "failed"
            assert job.error == {"type": "RuntimeError", "message": "boom"}
            assert job.spec.spec_hash not in store  # failures never cached
            assert jq.registry.counters["service.failures"] == 1
        finally:
            jq.shutdown()


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

    def test_concurrent_duplicates_collapse_to_one_simulation(self, store):
        release = threading.Event()
        original = JobQueue._execute

        def gated(self, job):
            release.wait(30)
            return original(self, job)

        jq = make_queue(store, workers=1)
        try:
            JobQueue._execute = gated
            jobs = [jq.submit(_spec()) for _ in range(6)]
            assert len({j.job_id for j in jobs}) == 1  # all the same job
            assert jobs[0].deduped
            release.set()
            assert jobs[0].wait(120) and jobs[0].state == "done"
            assert jq.registry.counters["service.simulations_started"] == 1
            assert jq.registry.counters["service.deduped"] == 5
        finally:
            JobQueue._execute = original
            release.set()
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


class TestTimeoutAndBackpressure:
    def test_timeout_fails_job_and_discards_late_result(self, store,
                                                        monkeypatch):
        finished = threading.Event()

        def slow(self, job):
            time.sleep(1.0)
            finished.set()
            return {"late": True}

        monkeypatch.setattr(JobQueue, "_execute", slow)
        jq = make_queue(store, workers=1)
        try:
            job = jq.submit(_spec(timeout_s=0.2))
            assert job.wait(30) and job.state == "failed"
            assert job.error["type"] == "timeout"
            assert jq.registry.counters["service.timeouts"] == 1
            assert finished.wait(30)           # the runner did finish late...
            time.sleep(0.1)
            assert job.state == "failed"       # ...but could not flip the job
            assert job.document is None
            assert job.spec.spec_hash not in store
        finally:
            jq.shutdown()

    def test_timeout_stops_the_simulation_itself(self, store):
        # ~5 s of simulation under a 0.5 s limit: the limit is the run's
        # budget, so the job's thread ends with the job instead of
        # simulating on to the run's natural end.
        spec = resolve_spec({
            "arch": {"preset": "shared_mesh", "n_cores": 64},
            "workload": {"benchmark": "quicksort", "scale": "paper"},
            "options": {"timeout_s": 0.5}})
        jq = make_queue(store, workers=1)
        try:
            job = jq.submit(spec)
            assert job.wait(30) and job.state == "failed"
            assert job.error["type"] == "timeout"
            deadline = time.monotonic() + 1.0
            while (time.monotonic() < deadline
                   and self._job_threads()):
                time.sleep(0.02)
            assert not self._job_threads()
            assert jq.registry.counters["service.timeouts"] == 1
            assert jq.registry.counters["service.failures"] == 0
            assert job.spec.spec_hash not in store
        finally:
            jq.shutdown()

    @staticmethod
    def _job_threads():
        return [t.name for t in threading.enumerate()
                if t.name.startswith("repro-job-")]

    def test_run_budget_and_join_expiry_fail_the_job_alike(self, store,
                                                           monkeypatch):
        # The run's own SimTimeout (here: before the join expires) maps
        # to the same error type, message and counter as the join.
        from repro.core.errors import SimTimeout

        def spent(self, job):
            raise SimTimeout("run exceeded its wall-clock budget")

        monkeypatch.setattr(JobQueue, "_execute", spent)
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

    def test_queue_full_raises(self, store, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(JobQueue, "_execute",
                            lambda self, job: release.wait(30) or {})
        jq = make_queue(store, workers=1, depth=1)
        try:
            jq.submit(_spec(seed=1))            # occupies the worker
            time.sleep(0.2)
            jq.submit(_spec(seed=2))            # occupies the one queue slot
            with pytest.raises(QueueFullError):
                jq.submit(_spec(seed=3))
            assert jq.registry.counters["service.rejected_full"] == 1
        finally:
            release.set()
            jq.shutdown()


class TestCheckpointRecovery:
    """A checkpointing job that dies mid-run must *resume*, not restart.

    The ``checkpoint_every`` option persists a snapshot beside the result
    cache at every boundary; ``repro.service.queue._after_checkpoint`` is
    the test seam for killing a worker right after a persist.
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

    def test_killed_job_resumes_to_identical_result(self, store, tmp_path,
                                                    monkeypatch):
        import repro.service.queue as queue_mod

        reference = self._reference_document(tmp_path)
        crashes = []

        def die_once(job, path):
            if not crashes:
                crashes.append(path)
                raise RuntimeError("worker killed after checkpoint")

        monkeypatch.setattr(queue_mod, "_after_checkpoint", die_once)
        jq = make_queue(store, workers=1)
        try:
            counters = jq.registry.counters
            first = jq.submit(_spec(**self.CKPT))
            assert first.wait(120) and first.state == "failed"
            assert first.resumable
            assert first.summary()["resumable"] is True
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

    def test_version_1_snapshot_is_refused_and_job_runs_from_zero(
            self, store, tmp_path, monkeypatch):
        """A snapshot from before the config lost its kernel/inbox
        fields must surface as a version error ("unusable: start
        fresh"), never as a TypeError from ArchConfig(**config)."""
        import struct

        import repro.service.queue as queue_mod
        from repro.checkpoint import CheckpointVersionError, load_snapshot
        from repro.checkpoint.codec import MAGIC

        reference = self._reference_document(tmp_path)
        crashes = []

        def die_once(job, path):
            if not crashes:
                crashes.append(path)
                raise RuntimeError("worker killed after checkpoint")

        monkeypatch.setattr(queue_mod, "_after_checkpoint", die_once)
        jq = make_queue(store, workers=1)
        try:
            counters = jq.registry.counters
            first = jq.submit(_spec(**self.CKPT))
            assert first.wait(120) and first.state == "failed"
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

    def test_timeout_keeps_checkpoint_and_marks_resumable(self, store,
                                                          monkeypatch):
        import repro.service.queue as queue_mod

        persisted = []

        def hang_after_persist(job, path):
            persisted.append(path)
            time.sleep(30)  # park the abandoned runner past the test

        monkeypatch.setattr(queue_mod, "_after_checkpoint",
                            hang_after_persist)
        jq = make_queue(store, workers=1)
        try:
            job = jq.submit(_spec(timeout_s=1.0, **self.CKPT))
            assert job.wait(60) and job.state == "failed"
            assert job.error["type"] == "timeout"
            assert "checkpoint retained" in job.error["message"]
            assert job.resumable
            assert persisted and os.path.exists(persisted[0])
            assert jq.registry.counters["service.timeouts"] == 1
            assert jq.registry.counters["service.timeouts_resumable"] == 1
            assert job.spec.spec_hash not in store  # no partial result
        finally:
            jq.shutdown()

    def test_timeout_without_checkpoint_is_not_resumable(self, store,
                                                         monkeypatch):
        monkeypatch.setattr(
            JobQueue, "_execute",
            lambda self, job: time.sleep(30) or {})
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


class TestShutdown:
    def test_drain_waits_for_inflight_jobs(self, store):
        jq = make_queue(store, workers=1)
        job = jq.submit(_spec())
        assert jq.shutdown(drain=True, timeout=120) is True
        assert job.state == "done"
        assert store.get(job.spec.spec_hash) is not None

    def test_no_drain_fails_queued_jobs(self, store, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(JobQueue, "_execute",
                            lambda self, job: release.wait(30) or {})
        jq = make_queue(store, workers=1, depth=4)
        running = jq.submit(_spec(seed=1))
        time.sleep(0.2)
        queued = jq.submit(_spec(seed=2))
        jq.shutdown(drain=False, timeout=5)
        release.set()
        assert queued.state == "failed"
        assert queued.error["type"] == "shutdown"
        assert running.job_id != queued.job_id

    def test_submit_after_shutdown_rejected(self, store):
        jq = make_queue(store)
        jq.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            jq.submit(_spec())
