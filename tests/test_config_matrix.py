"""Compatibility matrix: every sync policy x memory organization x
topology family must run every-benchmark-capable and verify.

This is the regression net for the configuration space the paper's
Section III advertises ("SiMany can be configured to explore a wide range
of many-core architectures").
"""

import dataclasses

import pytest

from repro.arch import ArchConfig, build_machine
from repro.workloads import get_workload

POLICIES = ("spatial", "conservative", "quantum", "bounded_slack",
            "laxp2p", "unbounded")
MEMORIES = ("shared", "distributed", "numa")
TOPOLOGIES = ("mesh", "ring", "torus", "crossbar")


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("memory", MEMORIES)
def test_policy_memory_matrix(policy, memory):
    cfg = ArchConfig(
        name=f"matrix-{policy}-{memory}",
        n_cores=8,
        topology="mesh",
        memory=memory,
        sync=policy,
        coherence_enabled=(memory == "numa"),
    )
    workload = get_workload("octree", scale="tiny", seed=0, memory=memory)
    machine = build_machine(cfg)
    result = machine.run(workload.root)
    workload.verify(result["output"])
    assert machine.live_tasks == 0


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("memory", ("shared", "distributed"))
def test_topology_memory_matrix(topology, memory):
    cfg = ArchConfig(
        name=f"matrix-{topology}-{memory}",
        n_cores=9 if topology == "torus" else 8,
        topology=topology,
        memory=memory,
    )
    workload = get_workload("dijkstra", scale="tiny", seed=0, memory=memory)
    machine = build_machine(cfg)
    result = machine.run(workload.root)
    workload.verify(result["output"])


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_with_extensions(policy):
    """Policies compose with work stealing + speed-aware dispatch."""
    cfg = ArchConfig(
        name=f"matrix-ext-{policy}",
        n_cores=8,
        topology="mesh",
        memory="shared",
        sync=policy,
        work_stealing=True,
        dispatch="speed_aware",
        polymorphic=True,
    )
    workload = get_workload("quicksort", scale="tiny", seed=0)
    machine = build_machine(cfg)
    result = machine.run(workload.root)
    workload.verify(result["output"])


@pytest.mark.parametrize("memory", MEMORIES)
def test_single_core_every_memory(memory):
    cfg = ArchConfig(name=f"matrix-1c-{memory}", n_cores=1, memory=memory)
    workload = get_workload("connected_components", scale="tiny", seed=0,
                            memory=memory)
    machine = build_machine(cfg)
    result = machine.run(workload.root)
    workload.verify(result["output"])
    assert machine.stats.tasks_spawned_remote == 0


@pytest.mark.parametrize("t_bound", [25.0, 100.0, 2000.0])
@pytest.mark.parametrize("shadow", ["fast", "exact", "off"])
def test_drift_shadow_matrix(t_bound, shadow):
    cfg = ArchConfig(
        name="matrix-drift",
        n_cores=16,
        memory="shared",
        drift_bound=t_bound,
        shadow=shadow,
    )
    workload = get_workload("octree", scale="tiny", seed=0)
    machine = build_machine(cfg)
    result = machine.run(workload.root)
    workload.verify(result["output"])
