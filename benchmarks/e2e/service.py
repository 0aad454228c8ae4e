"""The program as a service: server subprocess and closed-loop HTTP client.

The server is ``python -m repro serve --workers 1`` in a process of its
own, so client and server never share a GIL; load comes from this
process over at most ``nproc`` keep-alive connections, each sending its
next request only after the previous reply (a closed loop).
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from inputs import service_spec
from ops import OUT, SRC, OpResult, events_of
from spans import BENCH_LAYER, SpanRecorder

#: Closed-loop client connections (never more than the host's CPUs).
N_CONNECTIONS = min(2, os.cpu_count() or 1)

_REQUEST_TIMEOUT_S = 120.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_tmp_counter = itertools.count(1)


@contextlib.contextmanager
def tmp_dir(tag: str) -> Iterator[str]:
    """A fresh directory under ``out/`` (the benchmark writes nowhere
    else), removed on the way out — also by an exception or Ctrl-C."""
    path = os.path.join(OUT, f"tmp-{os.getpid()}-{next(_tmp_counter)}-{tag}")
    try:
        os.makedirs(path)
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Server:
    """A running ``python -m repro serve`` subprocess (see
    :func:`running_server`)."""

    def __init__(self, proc: subprocess.Popen, port: int, store: str) -> None:
        self.proc = proc
        self.port = port
        self.store = store

    def cpu_seconds(self) -> float:
        """user+sys CPU time the server process has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def counters(self) -> Dict[str, float]:
        """The service's own counters (``GET /v1/metrics``)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=_REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", "/v1/metrics")
            return json.loads(conn.getresponse().read()).get("counters", {})
        finally:
            conn.close()


@contextlib.contextmanager
def running_server() -> Iterator[Server]:
    """Start one server with one worker on a private, empty store; stop
    it and remove the store on the way out."""
    with tmp_dir("store") as store:
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        proc = None
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "1", "--store", store],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True)
            line = proc.stdout.readline()
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if not match:
                raise RuntimeError("server did not start: "
                                   + (line + proc.stdout.read()).strip())
            yield Server(proc, int(match.group(1)), store)
        finally:
            if proc is not None:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
                    try:
                        proc.wait(timeout=30)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
                proc.stdout.close()


def post_job(conn: http.client.HTTPConnection, op: Dict,
             rec: SpanRecorder, expect_hit: Optional[bool] = None
             ) -> OpResult:
    """One service op: POST the spec with ``options.wait`` and check the
    result document that comes back."""
    t0 = time.perf_counter()
    try:
        with rec.span("op", BENCH_LAYER, op["id"]):
            body = json.dumps(service_spec(op))
            with rec.span("service.POST /v1/jobs", "service"):
                conn.request("POST", "/v1/jobs", body=body,
                             headers={"Content-Type": "application/json"})
                reply = conn.getresponse()
                raw = reply.read()
            if reply.status != 200:
                raise RuntimeError(f"HTTP {reply.status}: {raw[:200]!r}")
            doc = json.loads(raw)
            result = doc["result"]
            if result["result"]["verified"] is not True:
                raise AssertionError("result document is not verified")
            if expect_hit is not None and doc["cache_hit"] != expect_hit:
                raise AssertionError(
                    f"cache_hit={doc['cache_hit']}, expected {expect_hit}")
            stats_vt = result["stats_vt"]
            facts = {"work_vtime": result["result"]["work_vtime"],
                     "stats": stats_vt}
        return OpResult(True, events_of(stats_vt), facts,
                        time.perf_counter() - t0)
    except Exception as exc:  # noqa: BLE001 - op boundary: record, keep going
        conn.close()  # a half-read reply would poison the next request
        return OpResult(False, 0, None, time.perf_counter() - t0,
                        f"{type(exc).__name__}: {exc}")


def closed_loop(port: int, ops: List[Dict], rec: SpanRecorder,
                expect_hit: bool, duration_s: Optional[float] = None,
                connections: int = N_CONNECTIONS
                ) -> Tuple[float, List[Tuple[Dict, OpResult]], List[float]]:
    """Drive the server from ``connections`` keep-alive connections.

    ``duration_s=None``: each op is sent exactly once, split round-robin
    over the connections.  Otherwise every connection cycles through
    all ops (each from its own offset) until the duration is over.
    Returns the loop's wall time — first request sent to last reply
    read — the ``(op, result)`` pairs in completion order, and each
    pair's completion time in seconds since the loop started.
    """
    done: List[Tuple[float, Dict, OpResult]] = []   # append is atomic
    barrier = threading.Barrier(connections + 1)

    def client(k: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=_REQUEST_TIMEOUT_S)
        try:
            try:
                conn.connect()
                barrier.wait()
            except (OSError, threading.BrokenBarrierError):
                barrier.abort()  # release the others; reported below
                return
            if duration_s is None:
                mine = ops[k::connections]
            else:
                deadline = time.perf_counter() + duration_s
                offset = k * len(ops) // connections
                mine = (ops[(offset + i) % len(ops)]
                        for i in itertools.count())
            for op in mine:
                if duration_s is not None and time.perf_counter() >= deadline:
                    break
                res = post_job(conn, op, rec, expect_hit)
                done.append((time.perf_counter(), op, res))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(k,),
                                name=f"e2e-client-{k}")
               for k in range(connections)]
    for t in threads:
        t.start()
    try:
        barrier.wait(timeout=_REQUEST_TIMEOUT_S)
    except threading.BrokenBarrierError:
        pass  # a client could not connect; checked after the joins
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    if len(done) < (len(ops) if duration_s is None else 1):
        raise RuntimeError("service clients could not reach the server")
    done.sort(key=lambda item: item[0])
    return (done[-1][0] - t0, [(op, res) for _, op, res in done],
            [at - t0 for at, _, _ in done])
