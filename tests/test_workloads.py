"""Output-correctness tests for all six dwarf benchmarks.

Every benchmark's simulated output is checked against an independent
reference (sorted(), union-find, a sequential Dijkstra, brute force, scipy)
on several architectures and seeds; the Dijkstra reference is itself pinned
equal to networkx here.  ``TestOutputContract`` pins the output's form:
one typed ``array.array`` per dwarf, on both backends.
"""

import dataclasses
import math
import multiprocessing
import pickle
from array import array
from collections import Counter

import numpy as np
import pytest

from repro.arch import (build_backend, build_machine, dist_mesh, shared_mesh,
                        shared_mesh_validation)
from repro.parallel import WorkloadSpec
from repro.workloads import BENCHMARKS, get_workload
from repro.core.task import TaskGroup
from repro.workloads.quicksort import _partition, sort_task
from repro.workloads.barnes_hut import build_tree, _accel_on
from repro.workloads.dijkstra import _reference as dijkstra_reference
from repro.workloads.generators import (adjacency_lists, params_for,
                                        random_array, random_bodies,
                                        random_graph)


def run_on(name, cfg, scale="tiny", seed=0):
    workload = get_workload(name, scale=scale, seed=seed, memory=cfg.memory)
    machine = build_machine(cfg)
    result = machine.run(workload.root)
    workload.verify(result["output"])
    return result, machine, workload


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("n_cores", [1, 4, 16])
def test_output_correct_shared(name, n_cores):
    run_on(name, shared_mesh(n_cores))


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("n_cores", [1, 9])
def test_output_correct_distributed(name, n_cores):
    run_on(name, dist_mesh(n_cores))


@pytest.mark.parametrize("name", BENCHMARKS)
def test_output_correct_with_coherence(name):
    run_on(name, shared_mesh_validation(8))


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_output_correct_across_seeds(name, seed):
    run_on(name, shared_mesh(8), seed=seed)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_native_matches_reference(name):
    """The Fig.-7 native closure satisfies the same verifier."""
    workload = get_workload(name, scale="tiny", seed=0, memory="shared")
    workload.verify(workload.native())


@pytest.mark.parametrize("name", BENCHMARKS)
def test_work_vtime_reported(name):
    result, machine, _ = run_on(name, shared_mesh(4))
    assert 0 < result["work_vtime"] <= machine.completion_time + 1e-9


class TestQuicksortDetails:
    def test_partition_splits_strictly(self):
        import random

        rnd = random.Random(7)
        for _ in range(500):
            n = rnd.randint(2, 60)
            arr = [rnd.randint(0, 15) for _ in range(n)]
            p = _partition(arr, 0, n)
            assert 0 < p < n
            assert max(arr[:p]) <= min(arr[p:])

    def test_partition_subrange(self):
        arr = [99, 5, 3, 8, 1, 99]
        p = _partition(arr, 1, 5)
        assert 1 < p < 5
        assert max(arr[1:p]) <= min(arr[p:5])

    def test_distributed_builds_sorted_tree(self):
        result, _, _ = run_on("quicksort", dist_mesh(9), scale="tiny")
        output = result["output"]
        assert output == array("q", sorted(output))

    def test_duplicate_heavy_input(self):
        data = np.random.default_rng(3).integers(0, 8, size=300).tolist()
        assert 1 - len(set(data)) / len(data) >= 0.9
        arr = list(data)

        def root(ctx):
            group = TaskGroup("qsort")
            yield from sort_task(ctx, arr, 0, len(arr), group)
            yield ctx.join(group)

        build_machine(shared_mesh(4)).run(root)
        assert all(a <= b for a, b in zip(arr, arr[1:]))
        assert Counter(arr) == Counter(data)

    @pytest.mark.parametrize("memory", ["shared", "distributed"])
    def test_verifier_rejects_near_misses(self, memory):
        workload = get_workload("quicksort", scale="tiny", seed=0,
                                memory=memory)
        good = np.sort(random_array(workload.meta["n"], seed=0)).tolist()
        workload.verify(good)
        # The first step up in the sorted output: good[i] < good[i + 1].
        i = next(k for k in range(len(good) - 1) if good[k] < good[k + 1])
        swapped = good[:i] + [good[i + 1], good[i]] + good[i + 2:]
        neighbour = good[:i] + [good[i + 1]] + good[i + 1:]
        assert neighbour == sorted(neighbour)  # sorted, wrong multiset
        for bad in (swapped, neighbour, good[:-1], good + [good[-1]], []):
            with pytest.raises(AssertionError):
                workload.verify(bad)


#: Each dwarf's output typecode, per memory organization where it differs
#: (quicksort has a shared and a distributed version).
OUTPUT_TYPECODES = [
    ("quicksort", "shared", "q"),
    ("quicksort", "distributed", "q"),
    ("connected_components", "shared", "q"),
    ("dijkstra", "shared", "d"),
    ("barnes_hut", "shared", "d"),
    ("spmxv", "shared", "d"),
    ("octree", "shared", "d"),
]


class TestOutputContract:
    """Every dwarf returns one flat, typed ``array.array``, and its
    ``native()`` returns the same type with the same values."""

    @pytest.mark.parametrize("name,memory,typecode", OUTPUT_TYPECODES,
                             ids=[f"{n}-{m}" for n, m, _ in OUTPUT_TYPECODES])
    def test_output_is_a_typed_array(self, name, memory, typecode):
        cfg = dist_mesh(4) if memory == "distributed" else shared_mesh(4)
        result, _, workload = run_on(name, cfg)
        out = result["output"]
        assert type(out) is array and out.typecode == typecode
        native = workload.native()
        assert type(native) is array and native.typecode == typecode
        assert (out == native) is True
        workload.verify(out)
        # Index 0 holds a finite value in every dwarf (dijkstra's source
        # reads 0), so 2 v + 1 differs from it.
        bad = array(typecode, out)
        bad[0] = bad[0] * 2 + 1
        with pytest.raises(AssertionError):
            workload.verify(bad)
        copy = pickle.loads(pickle.dumps(out))
        assert type(copy) is array and copy.typecode == typecode
        assert copy == out

    def test_barnes_hut_missing_body_fails_verify(self):
        result, _, workload = run_on("barnes_hut", shared_mesh(4))
        out = array("d", result["output"])
        assert len(out) == 3 * workload.meta["bodies"]
        out[3:6] = array("d", [math.nan] * 3)
        with pytest.raises(AssertionError, match="missing acceleration"):
            workload.verify(out)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs fork workers")
    @pytest.mark.parametrize("memory", ["shared", "distributed"])
    def test_sharded_quicksort_returns_the_serial_arrays(self, memory):
        cfg = dist_mesh(16) if memory == "distributed" else shared_mesh(16)
        specs = [WorkloadSpec("quicksort", scale="tiny", seed=0,
                              memory=memory, root_core=0),
                 WorkloadSpec("quicksort", scale="tiny", seed=1,
                              memory=memory, root_core=8)]
        serial = build_backend(cfg).run_workloads(specs)
        sharded = build_backend(dataclasses.replace(
            cfg, backend="sharded", shards=2)).run_workloads(specs)
        for spec, a, b in zip(specs, serial, sharded):
            assert type(b["output"]) is array and b["output"].typecode == "q"
            assert b["output"] == a["output"]
            spec.resolve().verify(b["output"])


class TestDijkstraDetails:
    def test_unreachable_nodes_inf(self):
        result, _, _ = run_on("dijkstra", shared_mesh(4), scale="tiny", seed=5)
        # Random sparse graphs have unreachable nodes; they must be inf.
        assert any(math.isinf(d) for d in result["output"]) or all(
            not math.isinf(d) for d in result["output"]
        )

    def test_source_distance_zero(self):
        result, _, _ = run_on("dijkstra", shared_mesh(4), scale="tiny")
        assert result["output"][0] == 0

    @staticmethod
    def _networkx_distances(nodes, edge_list):
        """The oracle: networkx on the simple graph that keeps the
        lightest of each bundle of parallel edges."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(nodes))
        for u, v, w in edge_list:
            if not graph.has_edge(u, v) or w < graph[u][v]["weight"]:
                graph.add_edge(u, v, weight=w)
        lengths = nx.single_source_dijkstra_path_length(graph, 0)
        return [lengths.get(v, math.inf) for v in range(nodes)]

    @pytest.mark.parametrize("scale", ["tiny", "small", "medium"])
    def test_reference_equals_networkx_on_generated_graphs(self, scale):
        params = params_for("dijkstra", scale)
        for seed in range(24):
            edge_list = random_graph(params["nodes"], params["edges"],
                                     seed=seed, weighted=True)
            adj = adjacency_lists(params["nodes"], edge_list)
            assert dijkstra_reference(adj) == self._networkx_distances(
                params["nodes"], edge_list), f"seed {seed}"

    @pytest.mark.parametrize("nodes,edge_list,want", [
        # Isolated source: everything but the source is unreachable.
        (4, [(1, 2, 5), (2, 3, 1)], [0, math.inf, math.inf, math.inf]),
        # Parallel edges of different weight: the lightest wins, whichever
        # order they were generated in.
        (3, [(0, 1, 9), (0, 1, 2), (1, 2, 4), (2, 1, 7)], [0, 2, 6]),
        # A component the source cannot reach.
        (5, [(0, 1, 3), (1, 2, 3), (0, 2, 7), (3, 4, 1)],
         [0, 3, 6, math.inf, math.inf]),
    ], ids=["isolated-source", "parallel-edges", "disconnected"])
    def test_reference_on_hand_built_graphs(self, nodes, edge_list, want):
        got = dijkstra_reference(adjacency_lists(nodes, edge_list))
        assert got == want
        assert got == self._networkx_distances(nodes, edge_list)


class TestBarnesHutDetails:
    def test_tree_masses_sum(self):
        bodies = random_bodies(40, seed=1)
        tree = build_tree(bodies)
        assert tree.mass == pytest.approx(sum(b.mass for b in bodies))

    def test_direct_vs_tree_agree_loosely(self):
        """With theta=0.5 the tree force approximates the O(n^2) force."""
        bodies = random_bodies(30, seed=2)
        tree = build_tree(bodies)
        for idx in (0, 7, 29):
            ax, ay, az = _accel_on(bodies, idx, tree)
            # Direct sum.
            bx = by = bz = 0.0
            b = bodies[idx]
            for j, other in enumerate(bodies):
                if j == idx:
                    continue
                dx, dy, dz = other.x - b.x, other.y - b.y, other.z - b.z
                r2 = dx * dx + dy * dy + dz * dz + 1e-4
                inv = other.mass / (r2 * math.sqrt(r2))
                bx += dx * inv
                by += dy * inv
                bz += dz * inv
            scale = max(1.0, abs(bx), abs(by), abs(bz))
            assert abs(ax - bx) / scale < 0.2
            assert abs(ay - by) / scale < 0.2
            assert abs(az - bz) / scale < 0.2


class TestSpmxvDetails:
    def test_structured_variant(self):
        from repro.workloads.spmxv import make_workload

        w = make_workload(scale="tiny", seed=0, structured=True)
        machine = build_machine(shared_mesh(4))
        result = machine.run(w.root)
        w.verify(result["output"])
        assert w.meta["structured"]

    def test_matches_scipy_exactly(self):
        result, _, workload = run_on("spmxv", shared_mesh(8), scale="small")
        # verify() already asserts allclose against scipy's A @ x.
        assert len(result["output"]) == workload.meta["rows"]


class TestOctreeDetails:
    def test_every_object_updated_once(self):
        result, _, workload = run_on("octree", shared_mesh(4), scale="tiny")
        # verify() compares against a reference single application of the
        # transform; a double update would fail it.
        assert len(result["output"]) > 0


class TestConnectedComponentsDetails:
    def test_labels_are_component_minima(self):
        result, _, _ = run_on("connected_components", shared_mesh(4),
                              scale="tiny", seed=8)
        labels = result["output"]
        # Each label must equal the smallest node id bearing it.
        for v, label in enumerate(labels):
            assert label <= v
            assert labels[label] == label
