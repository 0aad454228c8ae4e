"""End-to-end HTTP API tests, including the acceptance criteria:

* a submitted spec returns results identical (trace-digest match) to
  the equivalent direct ``repro run`` invocation;
* resubmitting an identical spec is served from the cache without
  re-simulating, verified by the service telemetry counters showing
  zero new simulation dispatches;
* both backends (serial and sharded) behave the same way over the API.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.arch import build_machine, shared_mesh
from repro.harness.trace import Tracer, trace_digest
from repro.service import serve_in_background
from repro.service.queue import JobQueue
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
    def test_queue_full_is_503(self, tmp_path, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(JobQueue, "_execute",
                            lambda self, job: release.wait(60) or {})
        svc, _ = serve_in_background(str(tmp_path / "store"), workers=1,
                                     depth=1)
        try:
            import time

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
            release.set()
        finally:
            release.set()
            svc.close(timeout=30)
