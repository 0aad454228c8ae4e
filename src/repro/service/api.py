"""Stdlib HTTP/JSON API over the job queue and result store.

One :class:`SimulationService` owns a :class:`~repro.service.store.ResultStore`,
a :class:`~repro.service.queue.JobQueue` and a
:class:`http.server.ThreadingHTTPServer` (one handler thread per
connection; the *pool* bounds simulation concurrency, not the HTTP
layer).  No third-party web framework is involved — routing is a small
table in the request handler.

Endpoints (all JSON; see docs/service.md for the full reference):

==========================  ==================================================
``GET  /v1/health``         liveness + job counts + version
``POST /v1/jobs``           submit a run spec; optionally wait for the result
``GET  /v1/jobs``           list known jobs (lifecycle summaries)
``GET  /v1/jobs/<id>``      one job: state, timings, result / live telemetry
``GET  /v1/results/<hash>`` stored result document, served verbatim
``GET  /v1/metrics``        service counters (submissions, hits, dedupes, ...)
``POST /v1/sweeps``         submit a design-space sweep spec (``?wait=1``
                            blocks for the frame; see docs/dse.md)
``GET  /v1/sweeps``         list known sweeps (lifecycle summaries)
``GET  /v1/sweeps/<id>``    one sweep: state, execution counters, frame
==========================  ==================================================

Every error response is structured:
``{"error": {"type": ..., "message": ...}}`` with a matching HTTP
status (400 malformed spec, 404 unknown resource, 503 queue full).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..obs.registry import MetricsRegistry
from .hashing import SpecError, resolve_spec
from .queue import Job, JobQueue, QueueFullError
from .store import ResultStore

#: Hard cap on accepted request bodies (a run spec is a few KB).
MAX_BODY_BYTES = 1 << 20

#: Ceiling for ``options.wait`` blocking, so one handler thread cannot
#: be parked forever by a single request.
MAX_WAIT_S = 600.0


class SimulationService:
    """The service composition root: store + queue + HTTP server.

    ``port=0`` binds an ephemeral port (the bound port is on
    ``service.port`` after construction), which is what tests and the
    executable docs use.  Call :meth:`serve_forever` to block, or
    :func:`serve_in_background` for a daemon-thread server.

    Example::

        import tempfile
        from repro.service import SimulationService
        svc = SimulationService(store_dir=tempfile.mkdtemp(), port=0)
        assert svc.port > 0
        svc.close()
    """

    def __init__(self, store_dir: str, host: str = "127.0.0.1",
                 port: int = 8123, workers: int = 2, depth: int = 64,
                 job_timeout_s: float = 300.0, quiet: bool = True) -> None:
        # Refuse a bad pool size before the store creates its directory.
        JobQueue.check_workers(workers)
        self.registry = MetricsRegistry()
        self.store = ResultStore(store_dir)
        self.queue = JobQueue(self.store, workers=workers, depth=depth,
                              default_timeout_s=job_timeout_s,
                              registry=self.registry)
        # Imported here, not at module top: repro.dse depends on the
        # service package's queue/hashing modules, so a top-level import
        # from this module would be circular.
        from ..dse.runner import SweepManager

        self.sweeps = SweepManager(self.queue, timeout_s=job_timeout_s)
        self.quiet = quiet
        handler = type("BoundHandler", (_Handler,), {"service": self})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        # http.server's shutdown() waits for a serve loop to stop, so it
        # must not be called for one that never started.
        self._serve_lock = threading.Lock()
        self._serving = self._closed = False

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve until :meth:`close` (or ``httpd.shutdown``) is called."""
        with self._serve_lock:
            if self._closed:
                return
            self._serving = True
        self.httpd.serve_forever(poll_interval=0.2)

    def close(self, drain: bool = True,
              timeout: Optional[float] = 30.0) -> bool:
        """Stop accepting requests, then drain the job queue.

        Returns True when every accepted job reached a terminal state
        within ``timeout`` (see :meth:`JobQueue.shutdown`).  Safe to
        call from a signal/main thread while ``serve_forever`` runs in
        another — and, because ``shutdown`` only flags the serve loop,
        also safe the other way around, and when nothing ever served.
        """
        with self._serve_lock:
            self._closed = True
            serving = self._serving
        if serving:
            self.httpd.shutdown()
        self.httpd.server_close()
        return self.queue.shutdown(drain=drain, timeout=timeout)

    # -- request operations (handler-called) ------------------------------
    def submit(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """Resolve + enqueue one spec; returns (HTTP status, body)."""
        spec = resolve_spec(payload)  # SpecError -> 400 at the handler
        job = self.queue.submit(spec)
        wait = spec.options.get("wait")
        if wait and not job.finished:
            timeout = min(job.timeout_s + 5.0, MAX_WAIT_S)
            job.wait(timeout)
        status = 200 if job.finished else 202
        return status, self.job_body(job, include_result=True)

    def job_body(self, job: Job,
                 include_result: bool = False) -> Dict[str, Any]:
        """A job's wire representation: summary + result/telemetry."""
        body = job.summary()
        snap = job.telemetry_live
        if job.state == "running" and snap is not None:
            body["telemetry_live"] = snap
        if include_result and job.state == "done":
            body["result"] = job.document
        return body

    def submit_sweep(self, payload: Any,
                     wait: bool = False) -> Tuple[int, Dict[str, Any]]:
        """Expand + launch one sweep spec; returns (HTTP status, body).

        Expansion happens on the handler thread so a malformed spec
        fails as a 400 before anything simulates; execution runs the
        cells through the service's own worker pool.
        """
        from ..dse import expand_sweep

        plan = expand_sweep(payload)  # SweepSpecError -> 400 at the handler
        run = self.sweeps.submit(plan)
        if wait and not run.finished:
            run.wait(MAX_WAIT_S)
        status = 200 if run.finished else 202
        return status, self.sweep_body(run)

    def sweep_body(self, run: Any,
                   include_frame: bool = True) -> Dict[str, Any]:
        """A sweep run's wire representation: summary + result frame."""
        body = run.summary()
        if include_frame and run.state == "done" and run.outcome is not None:
            body["frame"] = run.outcome.frame
        return body

    def metrics_body(self) -> Dict[str, Any]:
        snap = self.registry.snapshot()
        snap["jobs"] = self.queue.counts()
        snap["cached_results"] = len(self.store)
        return snap


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the bound :class:`SimulationService`.

    A concrete subclass carrying the ``service`` attribute is created
    per service instance, so several services (tests run many) never
    share handler state.
    """

    service: SimulationService  # bound by SimulationService
    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"

    # -- plumbing ---------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: D102
        if not self.service.quiet:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        data = json.dumps(body).encode()
        self._send_bytes(status, data)

    def _send_bytes(self, status: int, data: bytes,
                    content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(self, status: int, err_type: str,
                         message: str) -> None:
        self._send_json(status, {"error": {"type": err_type,
                                           "message": message}})

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise SpecError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SpecError("empty request body; expected a JSON run spec")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise SpecError(f"invalid JSON body: {exc}") from exc

    # -- routing ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "health"]:
                svc = self.service
                self._send_json(200, {
                    "status": "ok", "version": __version__,
                    "jobs": svc.queue.counts(),
                    "cached_results": len(svc.store),
                })
            elif parts == ["v1", "jobs"]:
                jobs = [j.summary() for j in self.service.queue.jobs()]
                self._send_json(200, {"jobs": jobs})
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                job = self.service.queue.get(parts[2])
                if job is None:
                    self._send_error_json(404, "unknown_job",
                                          f"no job {parts[2]!r}")
                else:
                    query = parse_qs(url.query)
                    include = "0" not in query.get("result", ["1"])
                    self._send_json(
                        200, self.service.job_body(job,
                                                   include_result=include))
            elif len(parts) == 3 and parts[:2] == ["v1", "results"]:
                try:
                    raw = self.service.store.get_bytes(parts[2])
                except ValueError:
                    raw = None
                if raw is None:
                    self._send_error_json(404, "unknown_result",
                                          f"no cached result {parts[2]!r}")
                else:
                    self._send_bytes(200, raw)
            elif parts == ["v1", "sweeps"]:
                runs = [r.summary() for r in self.service.sweeps.runs()]
                self._send_json(200, {"sweeps": runs})
            elif len(parts) == 3 and parts[:2] == ["v1", "sweeps"]:
                run = self.service.sweeps.get(parts[2])
                if run is None:
                    self._send_error_json(404, "unknown_sweep",
                                          f"no sweep {parts[2]!r}")
                else:
                    query = parse_qs(url.query)
                    include = "0" not in query.get("frame", ["1"])
                    self._send_json(
                        200, self.service.sweep_body(
                            run, include_frame=include))
            elif parts == ["v1", "metrics"]:
                self._send_json(200, self.service.metrics_body())
            else:
                self._send_error_json(404, "unknown_endpoint",
                                      f"no route for GET {url.path}")
        except BrokenPipeError:  # client went away mid-reply
            pass
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            self._send_error_json(500, type(exc).__name__, str(exc))

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "jobs"]:
                status, body = self.service.submit(self._read_body())
                self._send_json(status, body)
            elif parts == ["v1", "sweeps"]:
                query = parse_qs(url.query)
                wait = "1" in query.get("wait", [])
                status, body = self.service.submit_sweep(
                    self._read_body(), wait=wait)
                self._send_json(status, body)
            else:
                self._send_error_json(404, "unknown_endpoint",
                                      f"no route for POST {url.path}")
        except SpecError as exc:
            self._send_error_json(400, "invalid_spec", str(exc))
        except QueueFullError as exc:
            self._send_error_json(503, "queue_full", str(exc))
        except BrokenPipeError:
            pass
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            self._send_error_json(500, type(exc).__name__, str(exc))


def serve_in_background(
        store_dir: str,
        **kwargs: Any) -> Tuple[SimulationService, threading.Thread]:
    """Start a service on a daemon thread; returns (service, thread).

    Binds an ephemeral port by default — use ``service.base_url`` to
    talk to it and ``service.close()`` to stop it.  This is the
    entry point tests and the executable documentation blocks use;
    production deployments run ``python -m repro serve`` instead.

    Example::

        import tempfile, urllib.request
        from repro.service import serve_in_background
        svc, _ = serve_in_background(tempfile.mkdtemp())
        with urllib.request.urlopen(svc.base_url + "/v1/health") as resp:
            assert resp.status == 200
        svc.close()
    """
    kwargs.setdefault("port", 0)
    service = SimulationService(store_dir, **kwargs)
    thread = threading.Thread(target=service.serve_forever,
                              name="repro-service-http", daemon=True)
    thread.start()
    return service, thread
