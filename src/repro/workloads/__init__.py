"""Dwarf-like task-based benchmarks (paper, Section V).

Six benchmarks with dynamic control flow and irregular data structures:
Quicksort (shared-memory array and distributed list/BST versions),
Connected Components, Dijkstra, Barnes-Hut (force phase), SpMxV, Octree.

Use :func:`get_workload` to build an instance:

    run = get_workload("dijkstra", scale="small", seed=0, memory="shared")
    machine = build_machine(shared_mesh(64))
    result = machine.run(run.root)
    run.verify(result["output"])
"""

from __future__ import annotations

import importlib
from types import ModuleType

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("DataSpace", "DistSpace", "SharedSpace", "WorkloadRun",
              "make_space", "spread_home"),
    ".generators": ("SCALE_PARAMS", "params_for"),
})

#: The six dwarfs, in the paper's presentation order.  Each is the
#: module of its name, whose ``make_workload`` builds an instance.
BENCHMARKS = (
    "barnes_hut",
    "connected_components",
    "dijkstra",
    "quicksort",
    "spmxv",
    "octree",
)

#: The subset used for cycle-level validation (Figs. 5-6).
VALIDATION_BENCHMARKS = (
    "barnes_hut",
    "connected_components",
    "quicksort",
    "spmxv",
)

def _dwarf(name: str) -> ModuleType:
    if name not in BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}")
    return importlib.import_module(f"{__name__}.{name}")


def get_workload(name: str, scale: str = "small", seed: int = 0,
                 memory: str = "shared", **kwargs) -> WorkloadRun:
    """Build a benchmark instance by name; imports that dwarf only."""
    return _dwarf(name).make_workload(scale=scale, seed=seed, memory=memory,
                                      **kwargs)


def preload(name: str) -> None:
    """Import everything building dwarf ``name`` loads — its module and
    what its generators import at their use site — so that a process
    forked afterwards (a shard worker, a service job) imports nothing to
    build it.  An unknown name is left for :func:`get_workload` to
    refuse where the instance is built."""
    if name in BENCHMARKS:
        _dwarf(name)
        import numpy.random  # noqa: F401  (numpy loads its RNG on first use)
        if name == "spmxv":
            import scipy.sparse  # noqa: F401  (spmxv only: ~0.13 s, ~15 MB)


__all__ = [
    "BENCHMARKS",
    "DataSpace",
    "DistSpace",
    "SCALE_PARAMS",
    "SharedSpace",
    "VALIDATION_BENCHMARKS",
    "WorkloadRun",
    "get_workload",
    "make_space",
    "params_for",
    "preload",
    "spread_home",
]
