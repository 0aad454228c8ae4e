"""Golden-numbers regression test for the engine hot path.

The hot-path optimisations (arrival-ordered inbox heap, dispatch caching,
NoC route memoisation, struct-of-arrays core state) must be
behaviour-preserving: the virtual-time results of a simulation are part of
the engine's contract.  This test pins ``completion_vtime``, per-kind
message counts, drift-stall counts and action counts for a matrix of
seeded workloads across every sync policy; the expected values were
captured from the pre-optimisation engine (PR 1) and must stay
bit-identical.

Regenerate (only when an *intentional* semantic change lands) with:

    PYTHONPATH=src python tests/test_golden_numbers.py
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch import build_machine, dist_mesh, numa_mesh, shared_mesh
from repro.workloads import get_workload

#: (benchmark, memory, sync policy, cores, scale, seed)
GOLDEN_RUNS = (
    ("quicksort", "shared", "spatial", 16, "small", 0),
    ("quicksort", "distributed", "conservative", 8, "tiny", 0),
    ("connected_components", "distributed", "spatial", 16, "tiny", 0),
    ("dijkstra", "numa", "quantum", 16, "tiny", 0),
    ("spmxv", "shared", "bounded_slack", 16, "tiny", 0),
    ("octree", "distributed", "laxp2p", 16, "tiny", 0),
    ("barnes_hut", "shared", "unbounded", 16, "tiny", 0),
)


def golden_machine(benchmark, memory, sync, cores, scale, seed, **overrides):
    """Run one configuration to completion; returns the finished machine."""
    if memory == "shared":
        cfg = shared_mesh(cores)
    elif memory == "numa":
        cfg = numa_mesh(cores)
    else:
        cfg = dist_mesh(cores)
    cfg = dataclasses.replace(cfg, sync=sync, seed=seed, **overrides)
    workload = get_workload(benchmark, scale=scale, seed=seed, memory=memory)
    machine = build_machine(cfg)
    result = machine.run(workload.root)
    workload.verify(result["output"])
    return machine


def _observables(stats):
    return {
        "completion_vtime": stats.completion_vtime,
        "drift_stalls": stats.drift_stalls,
        "actions": stats.actions,
        "messages": {
            kind.value: count
            for kind, count in sorted(
                stats.messages_by_kind.items(), key=lambda kv: kv[0].value
            )
            if count
        },
    }


def run_golden(*run):
    """Run one configuration and distil the golden observables."""
    return _observables(golden_machine(*run).stats)


# Captured from the seed engine (commit 719504d) — see module docstring.
EXPECTED = {
    "quicksort-shared-spatial-16-small-0": {
        "completion_vtime": 70042.09999999999,
        "drift_stalls": 178,
        "actions": 392,
        "messages": {
            "probe": 68,
            "probe_ack": 68,
            "queue_state": 534,
            "task_spawn": 68,
        },
    },
    "quicksort-distributed-conservative-8-tiny-0": {
        "completion_vtime": 12428.5,
        "drift_stalls": 418,
        "actions": 150,
        "messages": {
            "data_request": 45,
            "data_response": 45,
            "joiner_request": 1,
            "probe": 22,
            "probe_ack": 22,
            "queue_state": 130,
            "task_spawn": 22,
        },
    },
    "connected_components-distributed-spatial-16-tiny-0": {
        "completion_vtime": 8045.0,
        "drift_stalls": 21,
        "actions": 1267,
        "messages": {
            "data_request": 571,
            "data_response": 485,
            "joiner_request": 1,
            "probe": 105,
            "probe_ack": 90,
            "probe_nack": 15,
            "queue_state": 1716,
            "task_spawn": 90,
        },
    },
    "dijkstra-numa-quantum-16-tiny-0": {
        "completion_vtime": 15835.5,
        "drift_stalls": 2283,
        "actions": 2911,
        "messages": {
            "joiner_request": 1,
            "probe": 123,
            "probe_ack": 117,
            "probe_nack": 6,
            "queue_state": 1155,
            "task_spawn": 117,
        },
    },
    "spmxv-shared-bounded_slack-16-tiny-0": {
        "completion_vtime": 5423.0,
        "drift_stalls": 30,
        "actions": 25,
        "messages": {
            "joiner_request": 1,
            "probe": 3,
            "probe_ack": 3,
            "queue_state": 20,
            "task_spawn": 3,
        },
    },
    "octree-distributed-laxp2p-16-tiny-0": {
        "completion_vtime": 4907.0,
        "drift_stalls": 0,
        "actions": 692,
        "messages": {
            "data_request": 134,
            "data_response": 134,
            "joiner_request": 1,
            "probe": 138,
            "probe_ack": 115,
            "probe_nack": 23,
            "queue_state": 1128,
            "task_spawn": 115,
        },
    },
    "barnes_hut-shared-unbounded-16-tiny-0": {
        "completion_vtime": 44107.8,
        "drift_stalls": 0,
        "actions": 201,
        "messages": {
            "joiner_request": 1,
            "probe": 7,
            "probe_ack": 7,
            "queue_state": 44,
            "task_spawn": 7,
        },
    },
}


@pytest.mark.parametrize("run", GOLDEN_RUNS, ids=lambda r: "-".join(map(str, r[:4])))
def test_golden_numbers(run):
    key = "-".join(map(str, run))
    assert key in EXPECTED, f"no golden record for {key}; regenerate"
    got = run_golden(*run)
    assert got == EXPECTED[key]


#: Per-check sanitizer counts on the sanitized golden runs: moving an
#: engine emission point must not make a check run more or less often.
EXPECTED_CHECKS = {
    "quicksort-shared-spatial-16": {
        "causal-delivery": 738, "drift-admission": 805, "publish": 600,
        "end-of-run": 1,
    },
    "connected_components-distributed-spatial-16": {
        "causal-delivery": 3073, "drift-admission": 2325, "publish": 2147,
        "end-of-run": 1,
    },
    "quicksort-distributed-conservative-8": {
        "causal-delivery": 287, "ordered-inbox": 287, "publish": 264,
        "end-of-run": 1,
    },
    "dijkstra-numa-quantum-16": {
        "causal-delivery": 1519, "publish": 3305, "end-of-run": 1,
    },
    "spmxv-shared-bounded_slack-16": {
        "causal-delivery": 30, "publish": 39, "end-of-run": 1,
    },
    "octree-distributed-laxp2p-16": {
        "causal-delivery": 1788, "publish": 1246, "end-of-run": 1,
    },
    "barnes_hut-shared-unbounded-16": {
        "causal-delivery": 66, "publish": 225, "end-of-run": 1,
    },
}


@pytest.mark.parametrize("run", GOLDEN_RUNS,
                         ids=lambda r: "-".join(map(str, r[:4])))
def test_golden_numbers_sanitized_on_the_shipped_path(run):
    """``sanitize`` must not change which admission code runs: the floor
    cache stays armed, every cached-floor admission is re-validated
    against the reference ``fabric.drift_ok`` (the standing differential
    test of the fast path), each check runs as often as pinned, and the
    goldens do not move.  Every policy runs here: the ``publish`` check
    restarts its baseline at each rescue, whose recompute may lower a
    fast-mode shadow (the quantum and conservative goldens do)."""
    machine = golden_machine(*run, sanitize=True)
    assert machine.fabric._floor_cache_on
    assert dict(machine.sanitizer.checks) == \
        EXPECTED_CHECKS["-".join(map(str, run[:4]))]
    assert _observables(machine.stats) == EXPECTED["-".join(map(str, run))]


# -- the exact shadow fixpoint at 64 cores ---------------------------------
#
# The rows above run at 8 or 16 cores, where rescues are rare.  These two
# 64-core rows run the exact shadow fixpoint hundreds of times on real
# traffic: conservative sync's rescue rounds, and spatial sync with
# ``shadow="exact"`` (the shadow ablation's exact arm).  Captured at
# commit 02b3403.

#: (benchmark, memory, sync policy, cores, scale, seed, config overrides)
FIXPOINT_GOLDEN_RUNS = (
    ("octree", "shared", "conservative", 64, "tiny", 0, {}),
    ("octree", "shared", "spatial", 64, "tiny", 0, {"shadow": "exact"}),
)


def _fixpoint_key(run):
    return "-".join(map(str, run[:6] + tuple(run[6].values())))


EXPECTED_FIXPOINT = {
    "octree-shared-conservative-64-tiny-0": {
        "completion_vtime": 3197.0,
        "drift_stalls": 7628,
        "actions": 692,
        "messages": {
            "joiner_request": 1,
            "probe": 138,
            "probe_ack": 115,
            "probe_nack": 23,
            "queue_state": 1074,
            "task_spawn": 115,
        },
    },
    "octree-shared-spatial-64-tiny-0-exact": {
        "completion_vtime": 3961.0,
        "drift_stalls": 94,
        "actions": 692,
        "messages": {
            "joiner_request": 1,
            "probe": 138,
            "probe_ack": 125,
            "probe_nack": 13,
            "queue_state": 1009,
            "task_spawn": 125,
        },
    },
}


@pytest.mark.parametrize("run", FIXPOINT_GOLDEN_RUNS, ids=_fixpoint_key)
def test_golden_numbers_through_the_exact_fixpoint(run):
    machine = golden_machine(*run[:6], **run[6])
    # Pins the row to the code path it exists for.
    assert machine.fabric.shadow_recomputes >= 100
    assert _observables(machine.stats) == EXPECTED_FIXPOINT[_fixpoint_key(run)]


# -- sharded backend ------------------------------------------------------
#
# The sharded backend must produce bit-identical results to the serial
# engine for the same *fenced* configuration (ArchConfig.shards > 0 is a
# semantic switch both backends honour; the backend choice is then pure
# execution strategy).  Bit-identity is guaranteed for shard-closed runs
# with no drift coupling — hence spatial sync with a large T, and the
# unbounded policy — where each worker replays exactly the serial host
# order of its own region.  Both the serial-vs-sharded equality AND the
# absolute values are pinned, on a 16-core mesh split into 4 shards with
# one root workload per shard region.

#: (sync policy, drift bound T, memory organization)
SHARDED_GOLDEN_RUNS = (
    ("spatial", 1e9, "shared"),
    ("unbounded", 100.0, "distributed"),
)

#: One root per shard region of the 4-shard 16-core mesh.
SHARD_ROOTS = (
    ("quicksort", 0),
    ("dijkstra", 4),
    ("spmxv", 8),
    ("connected_components", 12),
)


def _sharded_specs(memory):
    from repro.parallel import WorkloadSpec

    return [
        WorkloadSpec(bench, scale="tiny", seed=i, memory=memory,
                     root_core=core)
        for i, (bench, core) in enumerate(SHARD_ROOTS)
    ]


def run_sharded_golden(sync, drift, memory):
    """Run the fenced config under both backends; return observables."""
    from repro.arch import build_backend
    from repro.workloads import get_workload as gw

    base = shared_mesh(16) if memory == "shared" else dist_mesh(16)
    cfg = dataclasses.replace(base, sync=sync, drift_bound=drift, shards=4)
    specs = _sharded_specs(memory)

    serial = build_machine(cfg)
    serial_results = serial.run_roots([
        (gw(s.benchmark, scale=s.scale, seed=s.seed, memory=s.memory).root,
         (), s.root_core)
        for s in specs
    ])

    sharded = build_backend(dataclasses.replace(cfg, backend="sharded"))
    sharded_results = sharded.run_workloads(specs)

    return (_observables(serial.stats), _observables(sharded.stats),
            serial_results, sharded_results)


# Captured with the regeneration helper below; both backends produced
# these exact values at capture time.
EXPECTED_SHARDED = {
    "spatial-1000000000.0-shared": {
        "completion_vtime": 21751.0,
        "drift_stalls": 0,
        "actions": 5196,
        "messages": {
            "joiner_request": 4,
            "probe": 285,
            "probe_ack": 155,
            "probe_nack": 130,
            "queue_state": 699,
            "task_spawn": 155,
        },
    },
    "unbounded-100.0-distributed": {
        "completion_vtime": 20390.5,
        "drift_stalls": 0,
        "actions": 5177,
        "messages": {
            "data_request": 1746,
            "data_response": 1545,
            "joiner_request": 3,
            "probe": 370,
            "probe_ack": 213,
            "probe_nack": 157,
            "queue_state": 3041,
            "task_spawn": 213,
        },
    },
}


@pytest.mark.parametrize(
    "run", SHARDED_GOLDEN_RUNS, ids=lambda r: f"{r[0]}-{r[2]}")
def test_sharded_backend_bit_identical(run):
    key = "-".join(map(str, run))
    assert key in EXPECTED_SHARDED, f"no golden record for {key}; regenerate"
    serial_obs, sharded_obs, serial_results, sharded_results = (
        run_sharded_golden(*run))
    # Bit-identity premise: no drift coupling on either backend.
    assert serial_obs["drift_stalls"] == 0
    assert sharded_obs["drift_stalls"] == 0
    # The two backends agree exactly ...
    assert sharded_obs == serial_obs
    assert sharded_results == serial_results
    # ... and with the pinned absolute values.
    assert serial_obs == EXPECTED_SHARDED[key]


if __name__ == "__main__":  # golden regeneration helper
    import pprint

    table = {}
    for run in GOLDEN_RUNS:
        table["-".join(map(str, run))] = run_golden(*run)
    for run in FIXPOINT_GOLDEN_RUNS:
        table[_fixpoint_key(run)] = _observables(
            golden_machine(*run[:6], **run[6]).stats)
    pprint.pprint(table, sort_dicts=True)
    sharded_table = {}
    for run in SHARDED_GOLDEN_RUNS:
        key = "-".join(map(str, run))
        serial_obs, sharded_obs, _, _ = run_sharded_golden(*run)
        assert serial_obs == sharded_obs, f"{key}: backends disagree"
        sharded_table[key] = serial_obs
    pprint.pprint(sharded_table, sort_dicts=True)
