"""SiMany: a very fast discrete-event simulator for many-core architectures.

Reproduction of Certner, Li, Raman and Temam, "A Very Fast Simulator for
Exploring the Many-Core Future" (IPDPS 2011).

Quickstart::

    from repro import build_machine, shared_mesh, get_workload

    workload = get_workload("dijkstra", scale="small", memory="shared")
    machine = build_machine(shared_mesh(64))
    result = machine.run(workload.root)
    workload.verify(result["output"])
    print("virtual completion time:", result["work_vtime"])

Packages:

* :mod:`repro.core` — virtual time, spatial synchronization, the engine;
* :mod:`repro.network` — topologies, routing, NoC timing;
* :mod:`repro.memory` — shared/distributed memory models, caches, coherence;
* :mod:`repro.timing` — instruction-class costs, branch prediction;
* :mod:`repro.runtime` — conditional spawning, task groups, locks;
* :mod:`repro.cyclelevel` — the cycle-level validation referee;
* :mod:`repro.arch` — architecture configs and paper presets;
* :mod:`repro.workloads` — the six dwarf benchmarks;
* :mod:`repro.harness` — per-figure experiment runners and reports.

The names below resolve on first use (:mod:`repro._lazy`): importing
``repro`` loads none of these packages.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".arch": ("ArchConfig", "build_machine", "clustered_dist", "dist_mesh",
              "numa_mesh", "polymorphic_dist", "polymorphic_shared",
              "shared_mesh", "shared_mesh_validation", "single_core"),
    ".core": ("EngineParams", "Machine", "SimDeadlock", "SimError",
              "TaskGroup"),
    ".cyclelevel": ("build_cycle_level_machine",),
    ".runtime": ("SimLock",),
    ".workloads": ("BENCHMARKS", "get_workload"),
})

__version__ = "1.0.0"

__all__ = [
    "ArchConfig",
    "BENCHMARKS",
    "EngineParams",
    "Machine",
    "SimDeadlock",
    "SimError",
    "SimLock",
    "TaskGroup",
    "build_cycle_level_machine",
    "build_machine",
    "clustered_dist",
    "dist_mesh",
    "get_workload",
    "numa_mesh",
    "polymorphic_dist",
    "polymorphic_shared",
    "shared_mesh",
    "shared_mesh_validation",
    "single_core",
    "__version__",
]
