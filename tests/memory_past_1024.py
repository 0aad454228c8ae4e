"""Memory past 1024 cores: what a 4096-core machine costs to build and run.

Not collected by tier-1 (the name is not ``test_*``); CI's tier-1 job
runs it as a script::

    PYTHONPATH=src python tests/memory_past_1024.py

It builds ``numa_mesh(4096)`` and runs ``dijkstra`` (medium, seed 0) on
it under ``tracemalloc``, prints the build bytes per core, the traced
peak growth of build plus run and the ten allocation sites holding the
most memory at the end of the run, and exits 1 when the peak growth
exceeds ``PEAK_BOUND``.  Memory that grows per core or per routed pair
shows up here at 4096 cores long before it moves the end-to-end
benchmark's ``peak_rss_mb``.  ``tests/test_memory_shape.py`` holds the
tier-1 bounds at 1024 cores, through :func:`traced_build`.
"""

import gc
import sys
import tracemalloc

from repro.arch import build_machine, numa_mesh
from repro.workloads import get_workload

N_CORES = 4096

#: Traced peak growth of build + run, in bytes.  Measured 5.10 MB with
#: CPython 3.11 on x86-64 (29.3 MB while every core owned its containers
#: and annotator and the routing table kept every path it resolved);
#: the bound adds a 27 % margin.
PEAK_BOUND = 6_500_000


def traced_build(cfg):
    """``(machine, bytes)``: a machine built from ``cfg`` and the bytes
    its construction left allocated, as ``tracemalloc`` counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        machine = build_machine(cfg)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return machine, after - before


def main() -> int:
    workload = get_workload("dijkstra", scale="medium", seed=0,
                            memory="numa")
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    machine = build_machine(numa_mesh(N_CORES))
    built = tracemalloc.get_traced_memory()[0] - base
    result = machine.run(workload.root)
    peak = tracemalloc.get_traced_memory()[1] - base
    sites = tracemalloc.take_snapshot().statistics("lineno")[:10]
    tracemalloc.stop()
    workload.verify(result["output"])

    print(f"build bytes per core  {built / N_CORES:,.0f} B "
          f"({N_CORES} cores)")
    print(f"noc per-pair entries  {len(machine.noc._route_cache):,} routes, "
          f"{len(machine.noc._min_latency_memo):,} min-latency values")
    print(f"traced peak growth    {peak:,} B (bound {PEAK_BOUND:,})")
    print("top allocation sites at the end of the run:")
    for stat in sites:
        print(f"  {stat}")
    if peak > PEAK_BOUND:
        print(f"FAIL: traced peak growth {peak:,} B exceeds {PEAK_BOUND:,} B",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
