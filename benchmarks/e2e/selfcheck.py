"""Noise budget: do two sets of runs of the *same* code agree?

    python benchmarks/e2e/selfcheck.py

Runs the benchmark twice over (sets A and B, ``RUNS_PER_SET`` end-to-end
runs of each workload per set, run *r* of both sets on seed *r*),
interleaved workload by workload so both sets see the same stretch of
host weather.  Exits non-zero when, on any workload, the two medians of
an end-to-end metric differ by more than the metric's bound: then the
bound cannot tell a regression from the host, and no claim may lean on
it.  It also exits non-zero when run *r* of set A and of set B — two
processes, the same inputs — disagree on ``sim_digest``.  Both sets, the
digests and the per-metric spreads go to ``out/selfcheck.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))

#: Runs of each workload per set (seeds 0 .. RUNS_PER_SET - 1).
RUNS_PER_SET = 5


def run_once(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(catalog.RUN_SECONDS),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prefix = catalog.HOST_LINE_PREFIX
    host = next(json.loads(line[len(prefix):]) for line in lines
                if line.startswith(prefix))
    return {
        "seed": seed,
        "exit_code": done.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: m["value"] for n, m in result["metrics"].items()},
        "sim_digest": host["sim_digest"],
        "host.pass_spread": host["pass_spread"],
        "host.events_per_s_median": host["events_per_s_median"],
        "passes": host["passes"],
        "wall_s": host["wall_s"],
    }


def compare(sets: dict) -> list:
    """One row per workload x end-to-end metric."""
    rows = []
    for workload in (w.name for w in catalog.WORKLOADS):
        for name, unit, better, bound in catalog.END_TO_END:
            a, b = ([run["metrics"][name] for run in sets[s][workload]]
                    for s in ("A", "B"))
            med_a, med_b = statistics.median(a), statistics.median(b)
            both = a + b
            gap = abs(med_b - med_a) / med_a
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "better": better, "bound": bound,
                "median_A": med_a, "median_B": med_b,
                "median_gap": gap,
                "spread": (max(both) - min(both)) / statistics.median(both),
                "within_bound": gap <= bound,
            })
    return rows


def digest_mismatches(sets: dict) -> list:
    """(workload, seed) pairs on which the two sets — separate processes
    given the same inputs — computed different sim_digests."""
    return [(workload, a["seed"])
            for workload, runs in sets["A"].items()
            for a, b in zip(runs, sets["B"][workload])
            if a["sim_digest"] != b["sim_digest"]]


def main() -> int:
    workloads = [w.name for w in catalog.WORKLOADS]
    sets = {s: {w: [] for w in workloads} for s in ("A", "B")}
    t0 = time.time()
    for seed in range(RUNS_PER_SET):
        for workload in workloads:
            for which in ("A", "B"):
                run = run_once(workload, seed)
                sets[which][workload].append(run)
                print(f"set {which} run {seed} {workload:<13} "
                      + "  ".join(f"{n}={v:.5g}"
                                  for n, v in run["metrics"].items())
                      + f"  pass_spread={run['host.pass_spread']:.3f}"
                      + ("" if run["correct"] else "  FAILED OPS"),
                      flush=True)

    rows = compare(sets)
    all_correct = all(run["correct"] and run["exit_code"] == 0
                      for s in sets.values() for runs in s.values()
                      for run in runs)
    agree = all(row["within_bound"] for row in rows)
    mismatches = digest_mismatches(sets)
    print(f"\n{'workload':<13} {'metric':<13} {'median A':>12} "
          f"{'median B':>12} {'gap':>7} {'bound':>6} {'spread':>7}")
    for row in rows:
        print(f"{row['workload']:<13} {row['metric']:<13} "
              f"{row['median_A']:>12.5g} {row['median_B']:>12.5g} "
              f"{row['median_gap']:>7.2%} {row['bound']:>6.0%} "
              f"{row['spread']:>7.2%}"
              + ("" if row["within_bound"] else "  <-- beyond its bound"))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "selfcheck.json")
    with open(path, "w") as fh:
        json.dump({"runs_per_set": RUNS_PER_SET,
                   "seconds": catalog.RUN_SECONDS,
                   "host_cpus": os.cpu_count(),
                   "elapsed_s": round(time.time() - t0, 1),
                   "agree": agree, "all_correct": all_correct,
                   "digest_mismatches": mismatches,
                   "comparison": rows, "sets": sets}, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {os.path.relpath(path)}: sets "
          + ("agree within every bound" if agree else "DISAGREE")
          + ("" if all_correct else "; some ops FAILED")
          + ("; sim_digest identical across processes on every seed"
             if not mismatches else
             f"; sim_digest DIFFERS between processes on {mismatches}"))
    return 0 if agree and all_correct and not mismatches else 1


if __name__ == "__main__":
    raise SystemExit(main())
