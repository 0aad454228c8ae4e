"""Bounded job queue for the simulation service: one process per job.

A :class:`JobQueue` owns a fixed pool of worker threads pulling from a
bounded FIFO.  A worker runs each job in a **child process of its
own** and receives the result document back over a pipe, so ``N``
workers simulate on ``N`` host cores, and a finished job hands its
memory back to the operating system when its process exits.  The child
executes through the existing backends — :func:`repro.arch.build_backend`
picks serial or sharded from the spec's ``ArchConfig`` — so the service
adds no execution semantics of its own.  Everything else stays in the
queue's process:

* **cache consultation** — a submission whose content hash is already
  in the :class:`~repro.service.store.ResultStore` completes instantly
  with ``cache_hit=True`` and *zero* simulation work (the
  ``service.simulations_started`` counter is the proof);
* **de-duplication** — a submission whose hash matches a job that is
  currently queued or running returns *that* job instead of enqueueing
  a second simulation of the same spec;
* **per-job timeouts** — the job's limit is the run's wall-clock budget
  (``run_workloads(timeout=)``: the simulation itself stops, on either
  backend).  Should the run not stop by then, the worker stops the
  job's process with :data:`STOP_SIGNAL`, on which the child unwinds
  (a sharded run kills its shard workers and frees its shared-memory
  board), and kills it (SIGKILL) if it is still alive after
  :data:`KILL_GRACE_S`; shard workers left behind by a killed job exit
  by themselves within a second and take the board with them.  Either
  way the job fails with a ``timeout`` error and nothing of it keeps
  running;
* **checkpointed execution** — a job submitted with the
  ``checkpoint_every`` option persists a run snapshot
  (``repro.checkpoint``) beside the result cache at every boundary it
  crosses; when a checkpointing job dies or times out, the snapshot is
  retained and the job is marked ``resumable``, so resubmitting the
  same spec *resumes* from the last checkpoint (verified replay)
  instead of restarting, completes to the bit-identical document, and
  deletes the snapshot on success;
* **persist before visible** — a result is in the store before its job
  reads ``done``, and every ``service.*`` counter is kept here;
* **graceful drain** — :meth:`JobQueue.shutdown` stops admissions and
  waits for queued and in-flight jobs to reach a terminal state; a job
  process still running after that is stopped, and a job still queued
  never starts.  Job processes ignore SIGINT and SIGTERM, which a
  terminal's Ctrl-C or a supervisor sends to the whole process group:
  the server drains on either, so its jobs run on to their results.

The queue imports everything a job runs when it starts, and each
dwarf (with scipy, for ``spmxv``) before its first job; it calls
:func:`gc.freeze` before each fork, so a job process imports nothing
and its collector never walks (and so never copies) the parent's heap.
Where the host cannot fork (``resolve_start_method()`` returns
``spawn``) each job instead pays an interpreter start and the imports.

Job lifecycle: ``queued -> running -> done | failed``; every transition
is timestamped and queryable via :meth:`JobQueue.get` /
:meth:`Job.summary`.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import multiprocessing.connection
import os
import queue as _queue
import signal
import stat
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..core.errors import SimTimeout
from ..obs.registry import MetricsRegistry
from ..workloads import preload
from .hashing import ResolvedSpec
from .store import ResultStore

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

#: In-memory job index soft cap; oldest *terminal* jobs are evicted
#: beyond it (results stay in the store — only bookkeeping is pruned).
MAX_JOBS_INDEXED = 4096

#: The signal the queue stops a job's process with: the process
#: unwinds on it.  Not SIGTERM, which a supervisor sends to the whole
#: process group when it wants the server to drain.  (Windows has no
#: SIGUSR1; there SIGTERM ends the process outright.)
STOP_SIGNAL = getattr(signal, "SIGUSR1", signal.SIGTERM)

#: Signals blocked from a job process's fork until it has set what
#: each one does (:func:`_job_main`), where the host can block them.
_JOB_SIGNALS = frozenset((STOP_SIGNAL, signal.SIGTERM, signal.SIGINT))
_CAN_BLOCK = hasattr(signal, "pthread_sigmask")

#: Seconds a job process gets to exit after :data:`STOP_SIGNAL` before
#: SIGKILL.
KILL_GRACE_S = 5.0

#: Seconds between checks, while a job runs, that its process lives:
#: its pipe reports no EOF when it dies while shard workers hold a copy.
LIVENESS_CHECK_S = 0.5

#: Seconds between the telemetry snapshots a running job sends up
#: (jobs with ``options.telemetry``; ``GET /v1/jobs/<id>`` shows the last).
TELEMETRY_PERIOD_S = 0.25


class QueueFullError(RuntimeError):
    """The bounded submission queue is at capacity (HTTP 503 material)."""


def _after_checkpoint(path: str) -> None:
    """Seam invoked, in the job's process, after every checkpoint persist.

    A no-op in production; tests monkeypatch it to simulate a job dying
    (or hanging) mid-run with a checkpoint already on disk."""


class Job:
    """One submitted simulation and its lifecycle bookkeeping.

    ``document`` reads the persisted result payload from the store once
    the job is ``done`` — a job keeps no copy, so the index costs the
    same per entry whether the answer is 3 KB or 3 MB; ``error`` holds a
    structured ``{"type", "message"}`` dict once ``failed``.
    ``telemetry_live`` is the telemetry snapshot the job's process last
    sent while ``running`` (jobs with ``options.telemetry``).
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
        self.telemetry_live: Optional[Dict[str, Any]] = None
        self._lock = threading.Lock()
        self._done = threading.Event()

    # -- transitions (queue-internal) ------------------------------------
    def _start(self) -> None:
        with self._lock:
            self.state = "running"
            self.started_at = time.time()

    def _finish(self) -> bool:
        """Mark done; returns False when the job already reached a
        terminal state (a shutdown failed it while it ran) and the
        result must be discarded."""
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
        self.check_workers(workers)
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
        # One pool thread per worker; each runs its jobs, one at a time,
        # in child processes (job id -> (job, process) while they run).
        self._procs: Dict[str, Tuple[Job, Any]] = {}
        # Held from the check of _stopping through a fork and the
        # process's entry in _procs; shutdown() sets _stopping under it.
        self._spawn_lock = threading.Lock()
        self._stopping = False
        _import_job_path()
        from ..parallel.channels import resolve_start_method

        self._ctx = multiprocessing.get_context(resolve_start_method())
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-service-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    @staticmethod
    def check_workers(workers: int) -> None:
        """Raise ``ValueError`` unless ``workers`` is a usable pool size."""
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")

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
            self._run(job)
            self._queue.task_done()

    def _run(self, job: Job) -> None:
        """Run one job in a process of its own, bounded by its timeout.

        The simulation enforces the limit itself (``_execute`` hands it
        to ``run_workloads`` as the run's budget, which raises
        ``SimTimeout``); if no reply has come when it expires, the
        process is stopped (:func:`_reap`) before the job fails, so a
        client woken by the failure finds nothing of the job running.
        """
        job._start()
        try:
            started = self._start_process(job)
        except OSError as exc:  # the host refused a process (EAGAIN, ENOMEM)
            self._fail_error(job, type(exc).__name__, str(exc))
            self._release(job)
            return
        if started is None:  # the queue shut down first
            job._fail("shutdown", "queue shut down before execution")
            self._release(job)
            return
        reader, proc = started
        self.registry.counters["service.simulations_started"] += 1
        reply = None
        try:
            reply = self._await_reply(job, reader, proc)
        finally:
            reader.close()
            exitcode = _reap(proc, stop=reply is None)
            with self._lock:
                del self._procs[job.job_id]
            if exitcode is not None:
                proc.close()
        job.telemetry_live = None
        if reply is None or reply[:2] == ("error", SimTimeout.__name__):
            self._fail_timeout(job)
        elif reply[0] == "done":
            # Persist *before* the job becomes visibly done, so a client
            # (or duplicate submission) woken by the done event always
            # finds the cache entry.
            with job._lock:
                still_running = job.state == "running"
            if still_running:
                self.store.put(job.spec.spec_hash, reply[1])
                # The run is complete and cached; its checkpoint (if
                # any) has nothing left to resume.
                self._discard_checkpoint(job)
            if job._finish():
                self.registry.counters["service.completed"] += 1
        elif reply[0] == "error":
            self._fail_error(job, reply[1], reply[2])
        else:  # the process ended without a reply
            self._fail_error(job, "crashed", f"job process exited with "
                                             f"code {exitcode} before replying")
        self._release(job)

    def _start_process(self, job: Job) -> Optional[Tuple[Any, Any]]:
        """Fork (or spawn) the job's process; returns (reader, process),
        or ``None`` once :meth:`shutdown` has begun.

        Serialized, so no sibling job process inherits this job's pipe.
        ``gc.freeze()`` keeps the child's collector off every object
        this process already holds: walking them would write their
        headers and copy their pages, in every child.  The child starts
        with :data:`_JOB_SIGNALS` blocked, so none of them reaches it
        before :func:`_job_main` has set what it does.  The job's dwarf
        is imported here first (:func:`repro.workloads.preload`), once
        per server, so this job and later ones inherit it.
        """
        preload(job.spec.workload["benchmark"])
        with self._spawn_lock:
            if self._stopping:
                return None
            reader, writer = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_job_main, name=f"repro-job-{job.job_id}",
                args=(writer, job.spec, self._checkpoint_path(job),
                      job.timeout_s))
            gc.freeze()
            if _CAN_BLOCK:
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, _JOB_SIGNALS)
            try:
                proc.start()
            except OSError:
                reader.close()
                raise
            finally:
                if _CAN_BLOCK:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                gc.unfreeze()
                writer.close()
            with self._lock:
                self._procs[job.job_id] = (job, proc)
        return reader, proc

    def _await_reply(self, job: Job, reader: Any,
                     proc: Any) -> Optional[tuple]:
        """Read the job's messages until its reply; ``None`` when the
        timeout expires first, ``("died",)`` when the process ends
        without one."""
        deadline = time.monotonic() + job.timeout_s
        while True:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    return None
                if not reader.poll(min(remaining, LIVENESS_CHECK_S)):
                    if proc.exitcode is not None and not reader.poll(0):
                        return ("died",)
                    continue
                message = reader.recv()
            except (EOFError, OSError):
                return ("died",)
            if message[0] == "telemetry":
                job.telemetry_live = message[1]
            elif message[0] == "resumed":
                self.registry.counters[
                    "service.resumed_from_checkpoint"] += 1
            else:
                return message

    def _fail_timeout(self, job: Job) -> None:
        """Fail ``job`` as timed out — the one outcome of the run's own
        ``SimTimeout`` and of a process stopped at the deadline.

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

    def _fail_error(self, job: Job, err_type: str, message: str) -> None:
        # Flag resumability *before* the fail event wakes waiters, so a
        # client observing the terminal state always sees it.
        if self._checkpoint_on_disk(job):
            job.resumable = True
        if job._fail(err_type, message):
            self.registry.counters["service.failures"] += 1
            self.registry.counters[f"service.failures.{err_type}"] += 1

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

    # -- shutdown --------------------------------------------------------
    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = 30.0) -> bool:
        """Stop the pool; returns True when every job reached a terminal
        state in time.

        ``drain=True`` (the default) first refuses new submissions, then
        waits up to ``timeout`` for queued and in-flight jobs to finish;
        ``drain=False`` does not wait.  A job still running after that
        fails with a ``shutdown`` error and its process is stopped; a
        job still queued fails so and never starts.  No job outlives
        the queue.  Idempotent.
        """
        with self._lock:
            self._accepting = False
        drained = True
        if drain:
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            for job in self.jobs():
                remaining = (None if deadline is None
                             else max(0.0, deadline - time.monotonic()))
                if not job.wait(remaining):
                    drained = False
        # Under _spawn_lock no fork is under way, and none starts after;
        # under _lock no pool thread reaps a process here.
        with self._spawn_lock, self._lock:
            self._stopping = True
            running = list(self._procs.values())
            for job, proc in running:
                job._fail("shutdown", "queue shut down while the job ran")
                _signal(proc, STOP_SIGNAL)
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
            except _queue.Full:  # depth < workers: that thread idles on
                pass
        for t in self._threads:
            t.join(timeout=2 * KILL_GRACE_S if running else 1.0)
        return drained and not running


# -- the job's process ------------------------------------------------------

def _import_job_path() -> None:
    """Import, in this process, every module a job's run reaches.

    Called once when a queue starts, so a forked job process inherits
    them all and imports nothing (under ``PYTHONDONTWRITEBYTECODE=1``
    each child would otherwise compile them again).  The packages
    resolve their exports on first use, so each module is named here.
    A job's dwarf, and what it imports at its use site (numpy's RNG;
    scipy, for ``spmxv``), is left to :func:`repro.workloads.preload`
    before each fork: a server imports only the dwarfs it runs, and
    loading scipy here would cost every server ~15 MB and ~0.13 s.
    """
    from .. import checkpoint  # noqa: F401
    from ..harness import results, trace  # noqa: F401
    from ..obs import profiler, registry  # noqa: F401
    from ..parallel import coordinator, worker  # noqa: F401


def _signal(proc: Any, signum: int) -> None:
    """Send ``signum`` to ``proc`` unless it has been reaped (its pid
    may name another process by now)."""
    if proc.exitcode is None:
        try:
            os.kill(proc.pid, signum)
        except ProcessLookupError:
            pass


def _reap(proc: Any, stop: bool) -> Optional[int]:
    """Wait for a job process to exit; returns its exit code.

    ``stop=False`` first gives it :data:`KILL_GRACE_S` to exit by
    itself (it has replied, or died).  Then :data:`STOP_SIGNAL`, on
    which the child unwinds (a sharded run kills its shard workers and
    unlinks its board), and SIGKILL if it outlives another grace
    period.  The exit code is polled, not joined: ``Process.start()``
    in a sibling pool thread also reaps finished children, and a join
    racing it can return before the code is known.
    """
    steps = (lambda: _signal(proc, STOP_SIGNAL), proc.kill)
    for signal_it in steps if stop else (None,) + steps:
        if signal_it is not None:
            signal_it()
        deadline = time.monotonic() + KILL_GRACE_S
        while proc.exitcode is None and time.monotonic() < deadline:
            multiprocessing.connection.wait([proc.sentinel], 0.05)
        if proc.exitcode is not None:
            break
    return proc.exitcode


def _unwind(signum: int, frame: Any) -> None:
    """:data:`STOP_SIGNAL` in a job process: unwind, so every
    ``finally`` runs."""
    raise SystemExit(128 + signum)


def _drop_inherited_sockets() -> None:
    """Point every socket a forked job process inherited (the server's
    listening socket, its client connections) at ``/dev/null``.

    The child must not keep them open: a port would stay bound, and a
    connection would stay up, until the job ends.  ``dup2`` instead of
    ``close`` keeps each descriptor number taken, so a socket object of
    the parent's heap can never close an unrelated file that reused its
    number.  The result pipe is a pipe, not a socket.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    try:
        fds = [int(name) for name in os.listdir(fd_dir)]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd <= 2 or fd == null:
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:  # the listing's own descriptor, gone by now
                pass
    finally:
        os.close(null)


def _job_main(conn: Any, spec: ResolvedSpec, path: str,
              timeout_s: float) -> None:
    """Entry of a job's process: simulate ``spec``, send the outcome.

    Messages up ``conn``: ``("resumed",)`` and ``("telemetry", snap)``
    while running (see :func:`_execute`), then one reply,
    ``("done", document)`` or ``("error", type name, message)``; a
    process stopped by :data:`STOP_SIGNAL` exits without one.  A
    module-level function of picklable arguments, so the ``spawn``
    start method can run it too.  It takes no lock of the parent's:
    the one it makes guards ``conn`` against the telemetry thread.
    """
    signal.signal(STOP_SIGNAL, _unwind)
    # Ctrl-C and a supervisor's SIGTERM reach the whole process group;
    # the server drains on either, so its jobs, and the shard workers
    # they fork (which inherit this), run on.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if _CAN_BLOCK:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _JOB_SIGNALS)
    _drop_inherited_sockets()
    lock = threading.Lock()

    def send(message: tuple) -> None:
        with lock:
            try:
                conn.send(message)
            except OSError:  # the queue stopped listening
                pass

    try:
        reply: tuple = ("done", _execute(spec, path, timeout_s, send))
    except Exception as exc:  # noqa: BLE001 - the queue reports it
        reply = ("error", type(exc).__name__, str(exc) or repr(exc))
    # Stopped from now on, the process has nothing left to unwind.
    signal.signal(STOP_SIGNAL, signal.SIG_DFL)
    send(reply)


def _report_telemetry(backend: Any, send: Callable[[tuple], None],
                      stop: threading.Event) -> None:
    """Send ``backend``'s telemetry up every :data:`TELEMETRY_PERIOD_S`
    until ``stop`` is set (a thread of the job's process)."""
    from ..obs import collect_live_snapshot

    while True:
        snap = collect_live_snapshot(backend)
        if snap is not None:
            send(("telemetry", snap))
        if stop.wait(TELEMETRY_PERIOD_S):
            return


def _execute(spec: ResolvedSpec, path: str, timeout_s: float,
             send: Callable[[tuple], None]) -> Dict[str, Any]:
    """Simulate one job through the configured backend.

    Runs in the job's process.  Builds the backend exactly like
    ``python -m repro run`` does (``build_backend(cfg).run_workloads``,
    with ``timeout_s`` as the run's budget), collects the trace for the
    canonical digest every document carries, verifies the simulated
    output with the workload's independent checker, and serializes
    everything with :func:`repro.harness.results.run_record`.

    With the ``checkpoint_every`` option the same run persists a
    snapshot to ``path`` every that-many virtual-time cycles, and when
    a retained snapshot for this spec hash already exists it *resumes*
    from it by verified replay (``repro.checkpoint``) instead of
    restarting, and ``send``s ``("resumed",)``.  The final document is
    bit-identical either way.  A corrupt or version-mismatched snapshot
    file is discarded and the run starts fresh; a replay divergence
    (``CheckpointMismatchError``) fails the job loudly.  With the
    ``telemetry`` option a thread ``send``s the backend's live snapshot
    while the run lasts.
    """
    from ..arch import build_backend
    from ..checkpoint import (CheckpointCorruptError,
                              CheckpointVersionError, checkpoint_kwargs,
                              load_snapshot, save_snapshot)
    from ..harness.results import run_record
    from ..harness.trace import trace_digest
    from ..obs import collect_live_snapshot
    from ..parallel import WorkloadSpec

    options = spec.options
    every = options.get("checkpoint_every") or None
    overrides: Dict[str, Any] = {"collect_trace": True}
    telemetry = options.get("telemetry")
    if telemetry:
        overrides["telemetry"] = telemetry
    snap = None
    if every is not None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.exists(path):
            try:
                snap = load_snapshot(path)
            except (CheckpointCorruptError, CheckpointVersionError):
                os.remove(path)  # unusable: start fresh
        if snap is not None:
            send(("resumed",))
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
        _after_checkpoint(path)

    backend = build_backend(cfg)
    stop = threading.Event()
    if telemetry:
        threading.Thread(target=_report_telemetry,
                         args=(backend, send, stop),
                         name="repro-job-telemetry", daemon=True).start()
    try:
        (result,) = backend.run_workloads(
            [wspec], timeout=timeout_s,
            **checkpoint_kwargs(cfg, [wspec], every=every, sink=sink,
                                resume=snap, note=spec.spec_hash))
    finally:
        stop.set()
    wspec.resolve().verify(result["output"])
    digest = trace_digest(backend.trace)
    snapshot = collect_live_snapshot(backend) if telemetry else None
    document = run_record(result, backend.stats,
                          protocol=backend.protocol,
                          trace_digest=digest, telemetry=snapshot,
                          verified=True)
    document["spec"] = spec.canonical
    document["spec_hash"] = spec.spec_hash
    return document
