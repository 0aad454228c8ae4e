"""Smoke test of the benchmark harness (not part of tier-1's testpaths).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Runs the harness in ``--quick`` mode and checks its contract: names,
units and directions, every end-to-end metric on every workload, zero
failed ops, a valid trace, and that no server, shard worker or temp
store outlives a run — also one stopped by Ctrl-C.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "out")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w.name for w in catalog.WORKLOADS]
E2E_NAMES = [name for name, _unit, _better, _bound in catalog.END_TO_END]


#: Sessions of the harness runs started so far (each gets its own, so
#: that whatever a run leaves behind can be told from everything else).
SESSIONS = set()


def run_harness(*flags, timeout=120):
    proc = subprocess.Popen([sys.executable, RUN, *flags], cwd=REPO,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    SESSIONS.add(proc.pid)
    stdout, _ = proc.communicate(timeout=timeout)
    done = subprocess.CompletedProcess(proc.args, proc.returncode, stdout)
    results = [json.loads(line) for line in stdout.splitlines()
               if line.startswith('{"correct"')]
    return done, results


def leftovers():
    """Processes a harness run left behind — anything still in a run's
    session, alive or unreaped (a multiprocessing resource tracker names
    neither ``run.py`` nor ``out/``), or naming the harness on its command
    line — and temp directories still there."""
    procs = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        if int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                session = int(fh.read().rsplit(")", 1)[1].split()[3])
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if session in SESSIONS or RUN in cmdline or OUT in cmdline:
            procs.append(f"{pid} {cmdline.strip()}")
    tmp = [d for d in os.listdir(OUT) if d.startswith("tmp-")] \
        if os.path.isdir(OUT) else []
    return procs, tmp


def test_catalog_is_the_committed_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        assert json.load(fh) == catalog.benchmark_json()


def test_names_units_and_directions():
    doc = catalog.benchmark_json()
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    # Pinned: a wider bound is a change to the gate, not to the harness.
    assert {m["name"]: m["bound"] for m in doc["end_to_end"]} == {
        "events_per_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.10}
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    for metric in catalog.LAYER_METRICS:
        assert metric.workloads and set(metric.workloads) <= set(WORKLOADS)


def test_quick_run_of_all_workloads():
    t0 = time.time()
    done, results = run_harness("--quick")
    elapsed = time.time() - t0
    assert done.returncode == 0, done.stdout[-2000:]
    assert elapsed < 30, f"--quick took {elapsed:.1f} s"
    per_workload, combined = results[:-1], results[-1]
    assert len(per_workload) == len(WORKLOADS)
    for result in per_workload:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(E2E_NAMES)
        for name, unit, _better, _bound in catalog.END_TO_END:
            assert result["metrics"][name]["unit"] == unit
            assert result["metrics"][name]["value"] > 0
    assert combined["failed"] == 0
    assert all(NAME.match(name) for name in combined["metrics"])
    assert leftovers() == ([], [])


def test_quick_traced_runs_report_every_layer_metric():
    from repro.obs import validate_chrome_trace

    for workload in WORKLOADS:
        done, results = run_harness("--workload", workload, "--quick",
                                    "--trace")
        assert done.returncode == 0, done.stdout[-2000:]
        (result,) = results
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m.name
                                           for m in catalog.LAYER_METRICS]
        for metric in catalog.LAYER_METRICS:
            assert result["metrics"][metric.name]["unit"] == metric.unit
        assert "obs.telemetry_overhead" in result["metrics"]
        with open(os.path.join(OUT, f"trace_{workload}.json")) as fh:
            trace = json.load(fh)
        validate_chrome_trace(trace)
        spans = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
        ops = [ev for ev in spans if ev["name"] == "op"]
        assert ops and len({ev["args"]["op"] for ev in ops}) >= 2
        for ev in spans:   # every span belongs to an op and carries its id
            assert isinstance(ev["args"]["op"], int), ev
    assert leftovers() == ([], [])


def test_interrupted_run_leaves_nothing_behind():
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "service_warm", "--quick"],
        cwd=REPO, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    SESSIONS.add(proc.pid)
    deadline = time.time() + 20
    while time.time() < deadline and not leftovers()[1]:
        time.sleep(0.05)   # until a server and its temp store exist
    assert leftovers()[1], "the run never started a server"
    proc.send_signal(signal.SIGINT)
    assert proc.wait(timeout=60) != 0
    assert leftovers() == ([], [])
