"""Exploration E2: link latency/bandwidth sensitivity (Section III).

"The latency and bandwidth of individual links are also independently
tunable."  This benchmark sweeps the base link latency on distributed-
memory meshes: data-contended benchmarks (cell traffic on every hop) must
degrade with latency while data-light benchmarks barely move — the same
sensitivity split the clustered experiment (Fig. 12) exploits.
"""

import tempfile

from repro.dse import expand_sweep, run_sweep
from repro.harness.report import format_table

from conftest import bench_scale, bench_seeds, emit

LATENCIES = (1.0, 4.0, 16.0)
BENCHMARKS = ("connected_components", "spmxv")


def _run():
    """benchmark -> {link latency: virtual time averaged over seeds}."""
    out = {}
    with tempfile.TemporaryDirectory() as store:
        for name in BENCHMARKS:
            plan = expand_sweep({
                "base": {
                    "arch": {"preset": "dist_mesh", "n_cores": 64},
                    "workload": {"benchmark": name, "scale": bench_scale()},
                },
                "axes": {"arch.link_latency": list(LATENCIES),
                         "workload.seed": list(bench_seeds())},
            })
            cells = run_sweep(plan, store_dir=store).frame["cells"]
            assert all(c["status"] == "ok" for c in cells), cells
            out[name] = {}
            for latency in LATENCIES:
                vts = [c["metrics"]["work_vtime"] for c in cells
                       if c["params"]["arch.link_latency"] == latency]
                out[name][latency] = sum(vts) / len(vts)
    return out


def test_exploration_link_latency(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = format_table(
        ["benchmark"] + [f"link_latency={lat}" for lat in LATENCIES],
        [[name] + [results[name][lat] for lat in LATENCIES]
         for name in BENCHMARKS],
        title="Virtual time vs base link latency "
              "(distributed memory, 64 cores)")
    emit("exploration_network", text)

    def vt(name, latency):
        return results[name][latency]

    # Cell-contended CC degrades markedly with link latency...
    assert vt("connected_components", 16.0) > \
        1.5 * vt("connected_components", 1.0)
    # ...while SpMxV (no cell traffic) barely moves.
    assert vt("spmxv", 16.0) < 1.5 * vt("spmxv", 1.0)
