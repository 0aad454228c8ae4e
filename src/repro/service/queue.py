"""Bounded job queue and worker pool for the simulation service.

A :class:`JobQueue` owns a fixed pool of worker threads pulling from a
bounded FIFO.  Each job executes through the existing backends —
:func:`repro.arch.build_backend` picks serial or sharded from the
spec's ``ArchConfig`` — so the service adds no execution semantics of
its own.  The queue contributes exactly four behaviours:

* **cache consultation** — a submission whose content hash is already
  in the :class:`~repro.service.store.ResultStore` completes instantly
  with ``cache_hit=True`` and *zero* simulation work (the
  ``service.simulations_started`` counter is the proof);
* **de-duplication** — a submission whose hash matches a job that is
  currently queued or running returns *that* job instead of enqueueing
  a second simulation of the same spec;
* **per-job timeouts** — the job's limit is the run's wall-clock budget
  (``run_workloads(timeout=)``: the simulation itself stops, on either
  backend) and the deadline the pool worker joins the job's thread
  with; whichever fires first fails the job with a ``timeout`` error,
  and a late result from a thread that outlived the join is discarded
  (never stored, never reported);
* **checkpointed execution** — a job submitted with the
  ``checkpoint_every`` option persists a run snapshot
  (``repro.checkpoint``) beside the result cache at every boundary it
  crosses; when a checkpointing job dies or times out, the snapshot is
  retained and the job is marked ``resumable``, so resubmitting the
  same spec *resumes* from the last checkpoint (verified replay)
  instead of restarting, completes to the bit-identical document, and
  deletes the snapshot on success;
* **graceful drain** — :meth:`JobQueue.shutdown` stops admissions and
  waits for queued and in-flight jobs to reach a terminal state before
  stopping the workers, so accepted work is not lost on shutdown.

Job lifecycle: ``queued -> running -> done | failed``; every transition
is timestamped and queryable via :meth:`JobQueue.get` /
:meth:`Job.summary`.
"""

from __future__ import annotations

import dataclasses
import os
import queue as _queue
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..core.errors import SimTimeout
from ..obs.registry import MetricsRegistry
from .hashing import ResolvedSpec
from .store import ResultStore

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

#: In-memory job index soft cap; oldest *terminal* jobs are evicted
#: beyond it (results stay in the store — only bookkeeping is pruned).
MAX_JOBS_INDEXED = 4096


class QueueFullError(RuntimeError):
    """The bounded submission queue is at capacity (HTTP 503 material)."""


def _after_checkpoint(job: "Job", path: str) -> None:
    """Seam invoked after every checkpoint persist.

    A no-op in production; tests monkeypatch it to simulate a worker
    dying mid-run with a checkpoint already on disk."""


class Job:
    """One submitted simulation and its lifecycle bookkeeping.

    ``document`` reads the persisted result payload from the store once
    the job is ``done`` — a job keeps no copy, so the index costs the
    same per entry whether the answer is 3 KB or 3 MB; ``error`` holds a
    structured ``{"type", "message"}`` dict once ``failed``.
    ``backend`` references the live execution backend while ``running``
    so status queries can snapshot its telemetry mid-flight.
    """

    def __init__(self, job_id: str, spec: ResolvedSpec,
                 timeout_s: float, store: ResultStore) -> None:
        self.job_id = job_id
        self.spec = spec
        self.timeout_s = timeout_s
        self._store = store
        self.state = "queued"
        self.cache_hit = False
        self.deduped = False
        self.resumable = False  # a retained checkpoint can resume this spec
        self.error: Optional[Dict[str, str]] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.backend: Any = None
        self._lock = threading.Lock()
        self._done = threading.Event()

    # -- transitions (queue-internal) ------------------------------------
    def _start(self) -> None:
        with self._lock:
            self.state = "running"
            self.started_at = time.time()

    def _finish(self) -> bool:
        """Mark done; returns False when the job already reached a
        terminal state (e.g. a timeout won the race) and the result
        must be discarded."""
        with self._lock:
            if self.state != "running":
                return False
            self.state = "done"
            self.finished_at = time.time()
        self._done.set()
        return True

    def _fail(self, err_type: str, message: str) -> bool:
        with self._lock:
            if self.state in ("done", "failed"):
                return False
            self.state = "failed"
            self.error = {"type": err_type, "message": message}
            self.finished_at = time.time()
        self._done.set()
        return True

    # -- queries ---------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._done.is_set()

    @property
    def document(self) -> Optional[Dict[str, Any]]:
        """The stored result of a ``done`` job, parsed afresh per read;
        ``None`` before then (and if the entry has since been removed
        from the store)."""
        if self.state != "done":
            return None
        return self._store.get(self.spec.spec_hash)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state; True on arrival."""
        return self._done.wait(timeout)

    def summary(self) -> Dict[str, Any]:
        """JSON-safe lifecycle summary (no result payload)."""
        with self._lock:
            return {
                "job_id": self.job_id,
                "spec_hash": self.spec.spec_hash,
                "state": self.state,
                "cache_hit": self.cache_hit,
                "deduped": self.deduped,
                "resumable": self.resumable,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "error": self.error,
            }


class JobQueue:
    """Bounded worker pool executing resolved specs against the cache.

    Example::

        import tempfile
        from repro.service import JobQueue, ResultStore, resolve_spec

        store = ResultStore(tempfile.mkdtemp())
        jq = JobQueue(store, workers=1)
        job = jq.submit(resolve_spec({
            "arch": {"preset": "shared_mesh", "n_cores": 9},
            "workload": {"benchmark": "quicksort", "scale": "tiny"},
        }))
        assert job.wait(120) and job.state == "done"
        jq.shutdown()
    """

    def __init__(self, store: ResultStore, workers: int = 2,
                 depth: int = 64, default_timeout_s: float = 300.0,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.store = store
        self.registry = registry if registry is not None else MetricsRegistry()
        self.default_timeout_s = default_timeout_s
        self._queue: _queue.Queue = _queue.Queue(maxsize=depth)
        self._jobs: Dict[str, Job] = {}
        self._order: Deque[str] = deque()
        self._live_by_hash: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._accepting = True
        self._seq = 0
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-service-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission ------------------------------------------------------
    def submit(self, spec: ResolvedSpec) -> Job:
        """Admit one resolved spec; returns its (possibly shared) Job.

        Outcomes, checked in order under the queue lock:

        1. stored result for this hash -> a Job already in ``done`` state
           with ``cache_hit=True`` (no simulation, no queue slot);
        2. live job for this hash -> that existing Job, with
           ``deduped=True`` marking this submission;
        3. otherwise a fresh Job enters the FIFO (``queued``).

        Raises :class:`QueueFullError` when the FIFO is at capacity and
        ``RuntimeError`` after :meth:`shutdown`.
        """
        counters = self.registry.counters
        with self._lock:
            if not self._accepting:
                raise RuntimeError("job queue is shut down")
            counters["service.jobs_submitted"] += 1
            # Parsed, not just stat'ed: a truncated entry must read as a
            # miss and be re-simulated, never served.
            if self.store.get(spec.spec_hash) is not None:
                job = self._new_job(spec)
                job.cache_hit = True
                job.state = "done"
                job.finished_at = job.submitted_at
                job._done.set()
                self._index(job)
                counters["service.cache_hits"] += 1
                return job
            live = self._live_by_hash.get(spec.spec_hash)
            if live is not None:
                live.deduped = True
                counters["service.deduped"] += 1
                return live
            job = self._new_job(spec)
            try:
                self._queue.put_nowait(job)
            except _queue.Full:
                counters["service.rejected_full"] += 1
                raise QueueFullError(
                    f"queue at capacity ({self._queue.maxsize} jobs)"
                ) from None
            self._live_by_hash[spec.spec_hash] = job
            self._index(job)
            counters["service.jobs_queued"] += 1
            return job

    def _new_job(self, spec: ResolvedSpec) -> Job:
        self._seq += 1
        timeout = spec.options.get("timeout_s")
        return Job(f"{spec.short_id}-{self._seq}", spec,
                   timeout_s=float(timeout) if timeout
                   else self.default_timeout_s,
                   store=self.store)

    def _index(self, job: Job) -> None:
        self._jobs[job.job_id] = job
        self._order.append(job.job_id)
        while len(self._order) > MAX_JOBS_INDEXED:
            victim = self._jobs.get(self._order[0])
            if victim is not None and not victim.finished:
                break  # never evict live bookkeeping
            self._order.popleft()
            if victim is not None:
                self._jobs.pop(victim.job_id, None)

    # -- queries ---------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        """The job by id, or None when unknown/evicted."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """All indexed jobs, oldest first."""
        with self._lock:
            return [self._jobs[jid] for jid in self._order
                    if jid in self._jobs]

    def counts(self) -> Dict[str, int]:
        """Job counts by lifecycle state (for /health)."""
        out = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            out[job.state] = out.get(job.state, 0) + 1
        return out

    # -- execution -------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:  # shutdown sentinel
                return
            self._run_with_timeout(job)
            self._queue.task_done()

    def _run_with_timeout(self, job: Job) -> None:
        """Run one job in a joinable child thread, bounded by its timeout.

        The simulation enforces the limit itself (``_execute`` hands it
        to ``run_workloads`` as the run's budget, which raises
        ``SimTimeout`` and, sharded, terminates the worker processes).
        The join is the outer guard for whatever else the thread may be
        stuck in: a thread cannot be killed, so then the job is *failed
        and abandoned* — its eventual result is discarded by the
        ``_finish`` state guard and the pool slot is reclaimed at once.
        """
        job._start()
        runner = threading.Thread(target=self._execute_guarded, args=(job,),
                                  name=f"repro-job-{job.job_id}", daemon=True)
        runner.start()
        runner.join(job.timeout_s)
        if runner.is_alive():
            self._fail_timeout(job)
            self._release(job)

    def _fail_timeout(self, job: Job) -> None:
        """Fail ``job`` as timed out — the one outcome of the join expiry
        and of the run's own ``SimTimeout``, whichever comes first.

        A checkpointing job is not *lost* on timeout: its latest
        snapshot stays on disk and the job is marked resumable, so
        resubmitting the same spec continues from the checkpoint
        instead of restarting from zero.
        """
        resumable = self._checkpoint_on_disk(job)
        message = f"job exceeded {job.timeout_s:g}s wall-clock limit"
        if resumable:
            message += "; checkpoint retained, resubmit to resume from it"
            job.resumable = True  # before the fail event wakes waiters
        if job._fail("timeout", message):
            self.registry.counters["service.timeouts"] += 1
            if resumable:
                self.registry.counters["service.timeouts_resumable"] += 1

    def _execute_guarded(self, job: Job) -> None:
        try:
            document = self._execute(job)
            # Persist *before* the job becomes visibly done, so a client
            # (or duplicate submission) woken by the done event always
            # finds the cache entry.  A job the timeout already failed
            # skips the store entirely — late results are discarded.
            with job._lock:
                still_running = job.state == "running"
            if still_running:
                self.store.put(job.spec.spec_hash, document)
                # The run is complete and cached; its checkpoint (if
                # any) has nothing left to resume.
                self._discard_checkpoint(job)
            if job._finish():
                self.registry.counters["service.completed"] += 1
        except SimTimeout:
            self._fail_timeout(job)
        except Exception as exc:  # noqa: BLE001 - report, don't crash pool
            # Flag resumability *before* the fail event wakes waiters,
            # so a client observing the terminal state always sees it.
            if self._checkpoint_on_disk(job):
                job.resumable = True
            if job._fail(type(exc).__name__, str(exc) or repr(exc)):
                self.registry.counters["service.failures"] += 1
                self.registry.counters[
                    f"service.failures.{type(exc).__name__}"] += 1
        finally:
            job.backend = None
            self._release(job)

    def _release(self, job: Job) -> None:
        with self._lock:
            if self._live_by_hash.get(job.spec.spec_hash) is job:
                del self._live_by_hash[job.spec.spec_hash]

    # -- checkpoints -----------------------------------------------------
    def _checkpoint_path(self, job: Job) -> str:
        """Snapshot file for a spec, keyed by content hash beside the
        result cache (one live checkpoint per distinct simulation)."""
        return os.path.join(self.store.root, "checkpoints",
                            f"{job.spec.spec_hash}.ckpt")

    def _checkpoint_on_disk(self, job: Job) -> bool:
        return (bool(job.spec.options.get("checkpoint_every"))
                and os.path.exists(self._checkpoint_path(job)))

    def _discard_checkpoint(self, job: Job) -> None:
        if not job.spec.options.get("checkpoint_every"):
            return
        try:
            os.remove(self._checkpoint_path(job))
        except OSError:
            pass

    def _execute(self, job: Job) -> Dict[str, Any]:
        """Simulate one job through the configured backend.

        Builds the backend exactly like ``python -m repro run`` does
        (``build_backend(cfg).run_workloads``), collects the trace for
        the canonical digest, verifies the simulated output with the
        workload's independent checker, and serializes everything with
        :func:`repro.harness.results.run_record`.

        With the ``checkpoint_every`` option the same run persists a
        snapshot every that-many virtual-time cycles, and when a
        retained snapshot for this spec hash already exists it
        *resumes* from it by verified replay (``repro.checkpoint``)
        instead of restarting.  The final
        document is bit-identical either way.  A corrupt or
        version-mismatched snapshot file is discarded and the run
        starts fresh; a replay divergence
        (``CheckpointMismatchError``) fails the job loudly.
        """
        from ..arch import build_backend
        from ..checkpoint import (CheckpointCorruptError,
                                  CheckpointVersionError, checkpoint_kwargs,
                                  load_snapshot, save_snapshot)
        from ..harness.results import run_record
        from ..harness.trace import trace_digest
        from ..obs import collect_live_snapshot
        from ..parallel import WorkloadSpec

        spec = job.spec
        options = spec.options
        every = options.get("checkpoint_every") or None
        overrides: Dict[str, Any] = {}
        telemetry = options.get("telemetry")
        if telemetry:
            overrides["telemetry"] = telemetry
        if options.get("digest", True):
            overrides["collect_trace"] = True
        snap = None
        path = self._checkpoint_path(job)
        if every is not None:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if os.path.exists(path):
                try:
                    snap = load_snapshot(path)
                except (CheckpointCorruptError, CheckpointVersionError):
                    os.remove(path)  # unusable: start fresh
            if snap is not None:
                self.registry.counters["service.resumed_from_checkpoint"] += 1
        self.registry.counters["service.simulations_started"] += 1
        # A resume rebuilds from the snapshot's own (self-describing)
        # config; it hashes equal to spec.cfg or the path would differ.
        base_cfg = snap.rebuild_config() if snap is not None else spec.cfg
        cfg = dataclasses.replace(base_cfg, **overrides)
        wl = spec.workload
        wspec = WorkloadSpec(wl["benchmark"], scale=wl["scale"],
                             seed=wl["seed"], memory=cfg.memory,
                             root_core=wl["root_core"])

        def sink(snapshot) -> None:
            save_snapshot(snapshot, path)
            _after_checkpoint(job, path)

        backend = build_backend(cfg)
        job.backend = backend
        (result,) = backend.run_workloads(
            [wspec], timeout=job.timeout_s,
            **checkpoint_kwargs(cfg, [wspec], every=every, sink=sink,
                                resume=snap, note=spec.spec_hash))
        wspec.resolve().verify(result["output"])
        trace = backend.trace
        digest = trace_digest(trace) if trace is not None else None
        snapshot = collect_live_snapshot(backend) if telemetry else None
        document = run_record(result, backend.stats,
                              protocol=backend.protocol,
                              trace_digest=digest, telemetry=snapshot,
                              verified=True)
        document["spec"] = spec.canonical
        document["spec_hash"] = spec.spec_hash
        return document

    # -- shutdown --------------------------------------------------------
    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = 30.0) -> bool:
        """Stop the pool; returns True when every job reached a terminal
        state in time.

        ``drain=True`` (the default) first refuses new submissions, then
        waits up to ``timeout`` for queued and in-flight jobs to finish;
        ``drain=False`` fails whatever is still queued immediately
        (running jobs are abandoned to their timeouts).  Idempotent.
        """
        with self._lock:
            self._accepting = False
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = True
        if drain:
            for job in self.jobs():
                remaining = (None if deadline is None
                             else max(0.0, deadline - time.monotonic()))
                if not job.wait(remaining):
                    drained = False
        else:
            while True:
                try:
                    job = self._queue.get_nowait()
                except _queue.Empty:
                    break
                if job is not None:
                    job._fail("shutdown", "queue shut down before execution")
                    self._release(job)
                    self._queue.task_done()
        for _ in self._threads:
            try:
                self._queue.put_nowait(None)
            except _queue.Full:
                drained = False
        for t in self._threads:
            t.join(timeout=1.0)
        return drained
