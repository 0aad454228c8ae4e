"""Reproducibility: identical seeds must give bit-identical simulations.

Design-space exploration requires deterministic reruns (the paper sweeps
hundreds of configurations); any hidden nondeterminism (set iteration,
id()-keyed maps, unseeded RNGs) would poison comparisons.
"""

import dataclasses

import pytest

from repro.arch import build_machine, dist_mesh, shared_mesh
from repro.workloads import BENCHMARKS, get_workload


def run_once(name, cfg, seed):
    workload = get_workload(name, scale="tiny", seed=seed, memory=cfg.memory)
    machine = build_machine(cfg)
    result = machine.run(workload.root)
    stats = machine.stats
    return {
        "vtime": result["work_vtime"],
        "output": result["output"],
        "tasks": stats.tasks_started,
        "remote": stats.tasks_spawned_remote,
        "inline": stats.tasks_run_inline,
        "messages": dict(stats.messages_by_kind),
        "stalls": stats.drift_stalls,
        "ooo": stats.out_of_order_msgs,
        "actions": stats.actions,
    }


@pytest.mark.parametrize("name", BENCHMARKS)
def test_identical_reruns_shared(name):
    cfg = shared_mesh(16)
    first = run_once(name, cfg, seed=3)
    second = run_once(name, cfg, seed=3)
    assert first == second


@pytest.mark.parametrize("name", ["dijkstra", "quicksort"])
def test_identical_reruns_distributed(name):
    cfg = dist_mesh(9)
    assert run_once(name, cfg, seed=1) == run_once(name, cfg, seed=1)


def test_different_seeds_differ():
    cfg = shared_mesh(16)
    a = run_once("quicksort", cfg, seed=1)
    b = run_once("quicksort", cfg, seed=2)
    assert a["output"] != b["output"]  # different datasets


@pytest.mark.parametrize("policy", ["spatial", "conservative", "laxp2p"])
def test_identical_reruns_per_policy(policy):
    cfg = dataclasses.replace(shared_mesh(16), sync=policy)
    assert run_once("octree", cfg, seed=0) == run_once("octree", cfg, seed=0)


def test_identical_reruns_with_stealing():
    cfg = dataclasses.replace(shared_mesh(16), work_stealing=True)
    assert run_once("octree", cfg, seed=0) == run_once("octree", cfg, seed=0)


def test_machine_seed_controls_branch_sampling():
    """Different machine seeds resample probabilistic branch outcomes."""
    a = build_machine(dataclasses.replace(shared_mesh(4), seed=1))
    b = build_machine(dataclasses.replace(shared_mesh(4), seed=2))

    from repro.timing.annotator import Block
    from repro.timing.isa import InstrClass

    block = Block("b", instr_counts={InstrClass.INT_ALU: 1}, cond_branches=50)

    def root(ctx):
        t0 = yield ctx.now()
        for _ in range(40):
            yield ctx.compute(block=block)
        t1 = yield ctx.now()
        return t1 - t0

    assert a.run(root) != b.run(root)
