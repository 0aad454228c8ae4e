#!/usr/bin/env python
"""Quickstart: simulate a dwarf benchmark on a 64-core mesh.

Builds a SiMany machine (spatial synchronization, T=100), runs the
Dijkstra benchmark on the optimistic shared-memory architecture, verifies
the program output against a sequential Dijkstra reference (pinned equal
to networkx by tests/test_workloads.py), and prints the headline numbers.

Run:  python examples/quickstart.py

``REPRO_EXAMPLE_CORES`` / ``REPRO_EXAMPLE_SCALE`` shrink the run (used
by tests/test_docs.py to smoke-test every example quickly).
"""

import os

from repro import build_machine, get_workload, shared_mesh

N_CORES = int(os.environ.get("REPRO_EXAMPLE_CORES", "64"))
SCALE = os.environ.get("REPRO_EXAMPLE_SCALE", "small")


def main() -> None:
    # 1. Pick a benchmark instance (dataset generated deterministically).
    workload = get_workload("dijkstra", scale=SCALE, seed=0, memory="shared")

    # 2. Describe the architecture: a 64-core uniform 2D mesh with shared
    #    memory banks at 10-cycle latency (the paper's optimistic type).
    config = shared_mesh(N_CORES)
    machine = build_machine(config)

    # 3. Simulate.  The workload's root task runs on core 0 and spawns
    #    work across the mesh through the conditional-spawning run-time.
    result = machine.run(workload.root)

    # 4. The simulated program's output is real output - verify it.
    workload.verify(result["output"])

    # 5. Compare against a single-core run for the virtual-time speedup.
    baseline = get_workload("dijkstra", scale=SCALE, seed=0, memory="shared")
    single = build_machine(shared_mesh(1))
    base_result = single.run(baseline.root)

    stats = machine.stats
    print(f"benchmark           : dijkstra ({workload.meta['nodes']} nodes)")
    print(f"architecture        : {config.name} (T={config.drift_bound:.0f})")
    print(f"virtual time ({N_CORES}c) : {result['work_vtime']:>12.0f} cycles")
    print(f"virtual time (1c)   : {base_result['work_vtime']:>12.0f} cycles")
    print(f"speedup             : "
          f"{base_result['work_vtime'] / result['work_vtime']:>12.2f} x")
    print(f"tasks started       : {stats.tasks_started:>12d}")
    print(f"messages            : {stats.total_messages:>12d}")
    print(f"drift stalls        : {stats.drift_stalls:>12d}")
    print(f"out-of-order msgs   : {stats.out_of_order_msgs:>12d}")
    print(f"host wall time      : {stats.wall_seconds:>12.3f} s")


if __name__ == "__main__":
    main()
