"""One spec, every entry point, one result (ROADMAP aim 3).

The same run spec must give the same result document whether it runs
direct (``build_backend(cfg).run_workloads``), split at a checkpoint
and resumed by verified replay, as a service job with or without
``options.checkpoint_every``, or as the single cell of a sweep.  All of
those routes end in the same ``run_workloads`` call; this is the one
test that pins it, for a serial and a sharded spec.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.arch import build_backend
from repro.checkpoint import split_run
from repro.dse import expand_sweep, run_sweep
from repro.harness.trace import trace_digest
from repro.parallel import WorkloadSpec
from repro.service import JobQueue, ResultStore, resolve_spec

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

WORKLOAD = {"benchmark": "quicksort", "scale": "tiny", "seed": 3}
SERIAL = {"preset": "shared_mesh", "n_cores": 16}
SHARDED = dict(SERIAL, shards=4, backend="sharded")
#: Execution options the sweep engine fixes for its cells.
CELL_OPTIONS = {"telemetry": None}
#: One checkpoint interval (virtual-time cycles) for both architectures.
EVERY = 2000.0


def body(document) -> str:
    """Document bytes without the host section (wall clock)."""
    return json.dumps({k: v for k, v in document.items() if k != "host"},
                      sort_keys=True)


def service_document(tmp_path, name, payload, options) -> dict:
    queue = JobQueue(ResultStore(str(tmp_path / name)), workers=1)
    try:
        job = queue.submit(resolve_spec(dict(payload, options=options)))
        assert job.wait(120) and job.state == "done", job.error
        return job.document
    finally:
        queue.shutdown()


@pytest.mark.parametrize("arch", [
    SERIAL,
    pytest.param(SHARDED, marks=pytest.mark.skipif(
        not FORK_AVAILABLE, reason="needs fork workers")),
], ids=["serial", "sharded"])
def test_every_entry_point_gives_the_same_result(tmp_path, arch):
    payload = {"arch": arch, "workload": WORKLOAD}
    spec = resolve_spec(payload)
    cfg = dataclasses.replace(spec.cfg, collect_trace=True)
    wl = spec.workload
    specs = [WorkloadSpec(wl["benchmark"], scale=wl["scale"],
                          seed=wl["seed"], memory=cfg.memory,
                          root_core=wl["root_core"])]

    # Direct.
    backend = build_backend(cfg)
    results = backend.run_workloads(specs)
    stats_vt = backend.stats.as_dict()
    del stats_vt["wall_seconds"]
    digest = trace_digest(backend.trace)

    # Split at a checkpoint, resumed by verified replay.
    snap, checkpointed, resumed = split_run(cfg, specs, EVERY)
    assert snap is not None, "run finished before the first boundary"
    for outcome in (checkpointed, resumed):
        assert outcome["results"] == results
        assert outcome["stats_vt"] == stats_vt
        assert outcome["digest"] == digest

    # Service job, with and without checkpointing: equal bytes.  (No
    # telemetry section: its round wall-time histograms are host
    # observations, like the host section.)
    plain = service_document(tmp_path, "plain", payload, {"telemetry": None})
    assert body(plain) == body(service_document(
        tmp_path, "ckpt", payload,
        {"telemetry": None, "checkpoint_every": EVERY}))
    assert plain["result"]["work_vtime"] == results[0]["work_vtime"]
    assert plain["result"]["trace_digest"] == digest
    assert plain["stats_vt"] == stats_vt

    # One-cell sweep: the cell's cached document is the service's.
    store = str(tmp_path / "sweep")
    outcome = run_sweep(
        expand_sweep({"base": payload,
                      "axes": {"arch.n_cores": [arch["n_cores"]]}}),
        store_dir=store, jobs=1)
    (cell,) = outcome.frame["cells"]
    assert cell["status"] == "ok" and cell["spec_hash"] == spec.spec_hash
    assert cell["stats_vt"] == stats_vt
    assert cell["metrics"]["work_vtime"] == results[0]["work_vtime"]
    swept = ResultStore(store).get(spec.spec_hash)
    assert swept["result"]["trace_digest"] == digest
    assert body(swept) == body(
        service_document(tmp_path, "cell", payload, CELL_OPTIONS))


def test_a_store_filled_by_a_sweep_serves_the_digest(tmp_path):
    """Regression: sweep cells once skipped the digest, and the spec hash
    does not cover options, so a service request answered from a store
    a sweep filled first got a document without ``trace_digest``."""
    payload = {"arch": SERIAL, "workload": WORKLOAD}
    store = str(tmp_path / "shared")
    run_sweep(expand_sweep({"base": payload,
                            "axes": {"arch.n_cores": [SERIAL["n_cores"]]}}),
              store_dir=store, jobs=1)
    queue = JobQueue(ResultStore(store), workers=1)
    try:
        job = queue.submit(resolve_spec(payload))
        assert job.wait(120) and job.cache_hit
        served = job.document["result"]
    finally:
        queue.shutdown()
    cfg = dataclasses.replace(resolve_spec(payload).cfg, collect_trace=True)
    backend = build_backend(cfg)
    backend.run_workloads([WorkloadSpec(
        WORKLOAD["benchmark"], scale=WORKLOAD["scale"], seed=WORKLOAD["seed"],
        memory=cfg.memory)])
    assert served["trace_digest"] == trace_digest(backend.trace)
