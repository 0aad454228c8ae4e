"""End-to-end HTTP API tests, including the acceptance criteria:

* a submitted spec returns results identical (trace-digest match) to
  the equivalent direct ``repro run`` invocation;
* resubmitting an identical spec is served from the cache without
  re-simulating, verified by the service telemetry counters showing
  zero new simulation dispatches;
* both backends (serial and sharded) behave the same way over the API.
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
import urllib.error
import urllib.request

import pytest

import repro.service.queue as queue_mod
from repro.arch import build_machine, shared_mesh
from repro.harness.trace import Tracer, trace_digest
from repro.service import (ResultStore, SimulationService, resolve_spec,
                           serve_in_background)
from repro.workloads import get_workload

SERIAL_SPEC = {
    "arch": {"preset": "shared_mesh", "n_cores": 9},
    "workload": {"benchmark": "quicksort", "scale": "tiny", "seed": 0},
    "options": {"wait": True},
}
SHARDED_SPEC = {
    "arch": {"preset": "shared_mesh", "n_cores": 16, "shards": 4,
             "backend": "sharded"},
    "workload": {"benchmark": "quicksort", "scale": "tiny", "seed": 0},
    "options": {"wait": True},
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc, _ = serve_in_background(
        str(tmp_path_factory.mktemp("service-store")), workers=2)
    yield svc
    svc.close(timeout=60)


def _request(service, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        service.base_url + path, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=180) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_health(self, service):
        status, body = _request(service, "GET", "/v1/health")
        assert status == 200 and body["status"] == "ok"
        assert set(body["jobs"]) == {"queued", "running", "done", "failed"}

    def test_unknown_routes_are_structured_404s(self, service):
        for method, path in (("GET", "/nope"), ("GET", "/v1/nope"),
                             ("POST", "/v1/nope"),
                             ("GET", "/v1/jobs/no-such-job"),
                             ("GET", "/v1/results/" + "f" * 64),
                             ("GET", "/v1/results/not-a-hash")):
            status, body = _request(service, method, path,
                                    body={} if method == "POST" else None)
            assert status == 404, (method, path)
            assert "error" in body and body["error"]["message"]

    def test_malformed_specs_are_400s(self, service):
        for body in ({}, {"workload": {"benchmark": "nope"}},
                     {"workload": {"benchmark": "quicksort"},
                      "arch": {"drift_bound": "fast"}},
                     # A value only float() refuses is a 400 like the rest.
                     {"workload": {"benchmark": "quicksort"},
                      "arch": {"n_cores": 4,
                               "speed_factors": [1, "a", 2, 3]}}):
            status, reply = _request(service, "POST", "/v1/jobs", body)
            assert status == 400
            assert reply["error"]["type"] in ("invalid_spec",)

    def test_metrics_exposed(self, service):
        status, body = _request(service, "GET", "/v1/metrics")
        assert status == 200
        assert "counters" in body and "jobs" in body


class TestEndToEnd:
    @pytest.mark.parametrize("spec", [SERIAL_SPEC, SHARDED_SPEC],
                             ids=["serial", "sharded"])
    def test_submit_then_cached_resubmit(self, service, spec):
        status, first = _request(service, "POST", "/v1/jobs", spec)
        assert status == 200, first
        assert first["state"] == "done" and not first["cache_hit"]
        assert first["result"]["result"]["verified"] is True
        assert first["result"]["result"]["work_vtime"] > 0

        _, metrics = _request(service, "GET", "/v1/metrics")
        sims_before = metrics["counters"]["service.simulations_started"]

        status, second = _request(service, "POST", "/v1/jobs", spec)
        assert status == 200 and second["cache_hit"] is True
        assert second["result"] == first["result"]  # bit-identical payload

        _, metrics = _request(service, "GET", "/v1/metrics")
        assert metrics["counters"]["service.simulations_started"] == \
            sims_before  # zero new engine dispatches

    def test_service_digest_matches_direct_run(self, service):
        """The service answer is the `repro run` answer: same canonical
        trace digest, same virtual completion time."""
        status, reply = _request(service, "POST", "/v1/jobs", SERIAL_SPEC)
        assert status == 200 and reply["state"] == "done"
        served = reply["result"]["result"]

        machine = build_machine(shared_mesh(9))
        workload = get_workload("quicksort", scale="tiny", seed=0,
                                memory="shared")
        tracer = Tracer(machine)
        direct = machine.run(workload.root)
        assert served["work_vtime"] == direct["work_vtime"]
        assert served["trace_digest"] == trace_digest(tracer.export())

    def test_sharded_result_document_has_protocol(self, service):
        status, reply = _request(service, "POST", "/v1/jobs", SHARDED_SPEC)
        assert status == 200
        doc = reply["result"]
        assert doc["protocol"]["rounds"] > 0
        assert "worker_busy_s" in doc["host"]

    def test_result_endpoint_serves_stored_bytes(self, service):
        _, reply = _request(service, "POST", "/v1/jobs", SERIAL_SPEC)
        spec_hash = reply["spec_hash"]
        status, doc = _request(service, "GET", f"/v1/results/{spec_hash}")
        assert status == 200
        assert doc == reply["result"]
        assert doc == service.store.get(spec_hash)

    def test_jobs_listing_and_single_job(self, service):
        _, reply = _request(service, "POST", "/v1/jobs", SERIAL_SPEC)
        status, listing = _request(service, "GET", "/v1/jobs")
        assert status == 200
        assert any(j["job_id"] == reply["job_id"] for j in listing["jobs"])
        status, single = _request(service, "GET",
                                  f"/v1/jobs/{reply['job_id']}")
        assert status == 200 and single["state"] == "done"
        assert single["result"]["spec_hash"] == reply["spec_hash"]

    def test_async_submit_then_poll(self, service):
        spec = {
            "arch": {"preset": "shared_mesh", "n_cores": 9},
            "workload": {"benchmark": "quicksort", "scale": "tiny",
                         "seed": 42},
        }
        status, reply = _request(service, "POST", "/v1/jobs", spec)
        assert status in (200, 202)
        job = service.queue.get(reply["job_id"])
        assert job is not None and job.wait(120)
        status, final = _request(service, "GET",
                                 f"/v1/jobs/{reply['job_id']}")
        assert status == 200 and final["state"] == "done"


class TestBackpressure:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="a patched executor reaches only forked job processes")
    def test_queue_full_is_503(self, tmp_path, monkeypatch):
        gate = str(tmp_path / "release")

        def held(spec, *_):
            while not os.path.exists(gate):
                time.sleep(0.01)
            return {}

        def release():
            with open(gate, "w"):
                pass

        monkeypatch.setattr(queue_mod, "_execute", held)
        svc, _ = serve_in_background(str(tmp_path / "store"), workers=1,
                                     depth=1)
        try:
            def spec_for(seed):
                return {
                    "arch": {"preset": "shared_mesh", "n_cores": 9},
                    "workload": {"benchmark": "quicksort", "scale": "tiny",
                                 "seed": seed},
                }

            status, first = _request(svc, "POST", "/v1/jobs", spec_for(1))
            assert status == 202
            # Wait until the single worker picked job 1 off the queue, so
            # job 2 deterministically occupies the only queue slot.
            job1 = svc.queue.get(first["job_id"])
            for _ in range(100):
                if job1.state == "running":
                    break
                time.sleep(0.05)
            assert job1.state == "running"
            assert _request(svc, "POST", "/v1/jobs", spec_for(2))[0] == 202
            status, body = _request(svc, "POST", "/v1/jobs", spec_for(3))
            assert status == 503
            assert body["error"]["type"] == "queue_full"
        finally:
            release()
            svc.close(timeout=30)

#: ``repro serve`` in a fresh interpreter (``argv[1]`` the scratch
#: directory), its jobs parked after their first checkpoint until the
#: file ``release`` appears.
_PARKED_SERVE = textwrap.dedent("""
    import os, sys, time
    import repro.service.queue as queue_mod
    from repro.cli import main

    out = sys.argv[1]

    def park(path):
        open(os.path.join(out, "parked"), "w").close()
        while not os.path.exists(os.path.join(out, "release")):
            time.sleep(0.01)

    queue_mod._after_checkpoint = park
    sys.exit(main(["serve", "--port", "0", "--workers", "1",
                   "--store", os.path.join(out, "store")]))
""")


class TestLifecycleOverHttp:
    def test_running_job_shows_live_telemetry(self, tmp_path):
        # The job's process sends its telemetry up while it runs; the
        # job's status shows the last snapshot, and only while running.
        svc, _ = serve_in_background(str(tmp_path / "store"), workers=1)
        try:
            status, reply = _request(svc, "POST", "/v1/jobs", {
                "arch": {"preset": "shared_mesh", "n_cores": 64},
                "workload": {"benchmark": "quicksort", "scale": "paper"},
                "options": {"telemetry": "counters"}})
            assert status == 202
            path = f"/v1/jobs/{reply['job_id']}?result=0"
            deadline = time.monotonic() + 60
            live = None
            while not (live and live["counters"]) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
                status, body = _request(svc, "GET", path)
                assert status == 200 and body["state"] in ("queued",
                                                           "running")
                live = body.get("telemetry_live")
            assert live and live["counters"]["engine.actions.Compute"] > 0
            assert live["spec"] == "counters"
        finally:
            svc.close(drain=False, timeout=5)
        job = svc.queue.get(reply["job_id"])
        assert job.state == "failed" and "telemetry_live" not in \
            svc.job_body(job)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd")
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="reads a forked job process's descriptors from /proc")
    def test_job_process_holds_no_server_socket(self, tmp_path,
                                                monkeypatch):
        # A job process must not keep the listening socket (or a client
        # connection) open: the port would stay bound while it runs.
        gate, started = str(tmp_path / "release"), tmp_path / "started"

        def held(spec, *_):
            (tmp_path / "pid").write_text(str(os.getpid()))
            os.replace(tmp_path / "pid", started)
            while not os.path.exists(gate):
                time.sleep(0.01)
            return {}

        monkeypatch.setattr(queue_mod, "_execute", held)
        svc, _ = serve_in_background(str(tmp_path / "store"), workers=1)
        try:
            status, _ = _request(svc, "POST", "/v1/jobs",
                                 dict(SERIAL_SPEC, options={}))
            assert status == 202
            deadline = time.monotonic() + 30
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            fd_dir = f"/proc/{started.read_text()}/fd"
            links = [os.readlink(os.path.join(fd_dir, fd))
                     for fd in os.listdir(fd_dir)]
            assert not [link for link in links
                        if link.startswith("socket:")], links
        finally:
            with open(gate, "w"):
                pass
            svc.close(timeout=30)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched checkpoint seam reaches only forked jobs")
    def test_group_sigterm_drains_the_running_job(self, tmp_path):
        # A supervisor stopping `repro serve` signals its whole process
        # group: the server drains, and the running sharded job (its
        # process and its shard workers got the SIGTERM too) runs on
        # into the cache.
        spec = dict(SHARDED_SPEC, options={"checkpoint_every": 2000})
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), "..", "src"),
                        os.environ.get("PYTHONPATH", "")]))
        server = subprocess.Popen(
            [sys.executable, "-c", _PARKED_SERVE, str(tmp_path)], env=env,
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            url = server.stdout.readline().split()[-1]
            req = urllib.request.Request(
                url + "/v1/jobs", data=json.dumps(spec).encode(),
                method="POST", headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=60) as resp:
                assert resp.status == 202
            deadline = time.monotonic() + 60
            while (not (tmp_path / "parked").exists()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert (tmp_path / "parked").exists()
            os.killpg(server.pid, signal.SIGTERM)
            time.sleep(0.5)  # every process of the group has it by now
            (tmp_path / "release").touch()
            out, _ = server.communicate(timeout=120)
        finally:
            if server.poll() is None:
                os.killpg(server.pid, signal.SIGKILL)
                server.wait()
        assert server.returncode == 0, out
        assert "shutdown complete\n" in out and "unfinished" not in out
        stored = ResultStore(str(tmp_path / "store"))
        assert stored.get(resolve_spec(spec).spec_hash) is not None

    def test_close_without_serving_returns(self, tmp_path):
        # The class docstring's own example: construct, then close,
        # with no serve loop ever started.
        svc = SimulationService(store_dir=str(tmp_path / "store"), port=0)
        closer = threading.Thread(target=svc.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "close() blocked on a serve loop " \
                                      "that never ran"

