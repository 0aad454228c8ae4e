"""Struct-of-arrays plane coherence: every ``CoreUnit`` thin view and
every numpy view must alias its ``CoreStateArrays`` column bit-exactly.
"""

import dataclasses
import random

import pytest

from repro.arch import build_machine, shared_mesh
from repro.core.soa import COLUMNS, CoreStateArrays
from repro.workloads import get_workload


# -- CoreStateArrays <-> CoreUnit view coherence -------------------------

#: CoreUnit property name -> backing column name.
VIEW_PROPS = {
    "last_processed_arrival": "last_arrival",
    "busy_cycles": "busy_cycles",
    "service_clock": "service_clock",
    "in_ready": "in_ready",
    "stalled": "stalled",
}


def _assert_views_coherent(machine):
    machine.soa.check_view_coherence()
    for core in machine.cores:
        for prop, column in VIEW_PROPS.items():
            assert getattr(core, prop) == \
                getattr(machine.soa, column)[core.cid], (core.cid, prop)


def _random_root(rng, n_cores, depth=0):
    """A randomized program over the public action vocabulary."""

    def child(ctx):
        for _ in range(rng.randrange(1, 6)):
            yield ctx.compute(cycles=rng.uniform(0.5, 40.0))
        return None

    def root(ctx):
        for _ in range(rng.randrange(10, 30)):
            op = rng.randrange(4)
            if op == 0:
                yield ctx.compute(cycles=rng.uniform(0.5, 60.0))
            elif op == 1:
                yield ctx.now()
            elif op == 2:
                yield ctx.send(rng.randrange(n_cores), tag="noise")
            else:
                yield ctx.try_spawn(child)
        return None

    return root


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_views_coherent_after_random_steps(seed):
    """Property: after randomized engine steps, every CoreUnit thin view
    agrees bit-exactly with its CoreStateArrays column."""
    rng = random.Random(seed)
    cfg = dataclasses.replace(shared_mesh(16), seed=seed)
    machine = build_machine(cfg)
    machine.run(_random_root(rng, cfg.n_cores))
    _assert_views_coherent(machine)
    # The busy/vtime planes must have actually moved (non-vacuous check).
    assert sum(machine.soa.busy_cycles) > 0
    assert max(machine.soa.vtime) > 0


def test_views_coherent_after_benchmark():
    machine = build_machine(shared_mesh(16))
    workload = get_workload("quicksort", scale="tiny", seed=4,
                            memory="shared")
    machine.run(workload.root)
    _assert_views_coherent(machine)


def test_property_writes_hit_columns():
    machine = build_machine(shared_mesh(4))
    core = machine.cores[2]
    core.service_clock = 123.5
    assert machine.soa.service_clock[2] == 123.5
    machine.soa.busy_cycles[2] = 77.0
    assert core.busy_cycles == 77.0


def test_soa_rejects_mismatched_neighbors():
    with pytest.raises(ValueError):
        CoreStateArrays(3, [(1,), (0,)])


def test_soa_numpy_views_are_zero_copy():
    soa = CoreStateArrays(4, [(1,), (0, 2), (1, 3), (2,)])
    for name, _, _ in COLUMNS:
        getattr(soa, name)[1] = 1
        assert getattr(soa, f"{name}_np")[1] == 1
