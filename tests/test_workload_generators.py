"""Unit tests for dataset generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.generators import (
    SCALE_PARAMS,
    adjacency_lists,
    octree_size,
    params_for,
    random_array,
    random_bodies,
    random_graph,
    random_octree,
    random_sparse_matrix,
    structured_sparse_matrix,
)


class TestScaleParams:
    def test_all_scales_cover_all_benchmarks(self):
        names = set(SCALE_PARAMS["tiny"])
        for scale, table in SCALE_PARAMS.items():
            assert set(table) == names, scale

    def test_paper_sizes(self):
        assert params_for("quicksort", "paper")["n"] == 100_000
        assert params_for("connected_components", "paper") == {
            "nodes": 1000, "edges": 2000,
        }
        assert params_for("dijkstra", "paper")["nodes"] == 2000
        assert params_for("octree", "paper")["depth"] == 6

    def test_scales_monotone(self):
        order = ["tiny", "small", "medium", "paper"]
        for a, b in zip(order, order[1:]):
            assert params_for("quicksort", a)["n"] <= params_for("quicksort", b)["n"]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            params_for("quicksort", "gigantic")
        with pytest.raises(ValueError):
            params_for("nonsense", "small")


class TestDeterminism:
    def test_array_deterministic(self):
        assert np.array_equal(random_array(100, seed=5),
                              random_array(100, seed=5))
        assert not np.array_equal(random_array(100, seed=5),
                                  random_array(100, seed=6))

    def test_array_values_pinned(self):
        # The plain draw, boxed: quicksort's datasets, and with them
        # every simulated bit, do not depend on the container returned.
        rng = np.random.default_rng(5)
        boxed = [int(x) for x in rng.integers(0, 1000, size=100)]
        assert random_array(100, seed=5).tolist() == boxed

    def test_graph_deterministic(self):
        assert random_graph(50, 100, seed=1) == random_graph(50, 100, seed=1)

    def test_bodies_deterministic(self):
        a = random_bodies(10, seed=3)
        b = random_bodies(10, seed=3)
        assert [(x.x, x.mass) for x in a] == [(x.x, x.mass) for x in b]

    def test_octree_deterministic(self):
        a = random_octree(4, seed=9)
        b = random_octree(4, seed=9)
        assert octree_size(a) == octree_size(b)

    def test_sparse_deterministic(self):
        a = random_sparse_matrix(64, 4, seed=2)
        b = random_sparse_matrix(64, 4, seed=2)
        assert (a != b).nnz == 0


class TestGraphGeneration:
    def test_no_self_loops(self):
        for u, v in random_graph(100, 300, seed=0):
            assert u != v

    def test_weighted_edges(self):
        edges = random_graph(50, 100, seed=0, weighted=True)
        for u, v, w in edges:
            assert 1 <= w < 100

    def test_adjacency_symmetric(self):
        edges = random_graph(30, 60, seed=4)
        adj = adjacency_lists(30, edges)
        for u in range(30):
            for v in adj[u]:
                assert u in adj[v]

    def test_weighted_adjacency(self):
        edges = [(0, 1, 7)]
        adj = adjacency_lists(2, edges)
        assert adj[0] == [(1, 7)]
        assert adj[1] == [(0, 7)]


class TestSparseMatrices:
    def test_shape_and_density(self):
        mat = random_sparse_matrix(128, 8, seed=0)
        assert mat.shape == (128, 128)
        assert 0 < mat.nnz <= 128 * 8

    def test_structured_is_banded(self):
        mat = structured_sparse_matrix(50, bandwidth=3, seed=0)
        coo = mat.tocoo()
        assert (abs(coo.row - coo.col) <= 3).all()

    def test_positive_values(self):
        mat = random_sparse_matrix(64, 4, seed=1)
        assert (mat.data > 0).all()


class TestOctree:
    def test_depth_respected(self):
        tree = random_octree(3, seed=0)

        def max_depth(node):
            if not node.children:
                return node.depth
            return max(max_depth(c) for c in node.children)

        assert max_depth(tree) <= 3

    def test_root_not_degenerate(self):
        tree = random_octree(5, fill=0.01, seed=0)
        assert tree.children  # guaranteed at least one child

    def test_objects_everywhere(self):
        tree = random_octree(3, objects_per_leaf=2, seed=0)
        assert len(tree.objects) == 2

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20)
    def test_size_positive(self, seed):
        tree = random_octree(3, seed=seed)
        assert octree_size(tree) >= 1


class TestBodies:
    def test_unit_cube(self):
        for body in random_bodies(50, seed=0):
            assert 0 <= body.x <= 1
            assert 0 <= body.y <= 1
            assert 0 <= body.z <= 1
            assert body.mass > 0
