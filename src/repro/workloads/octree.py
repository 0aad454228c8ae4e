"""Octree update (paper, Section V).

A tree-traversal benchmark that updates all objects within an octree
structure, as typically used in gaming or graphics generation.  The paper
runs 50 randomly generated octrees of depth 6.

Each task updates its node's objects and spawns one task per child
subtree; subtrees are disjoint, so there are no data dependencies between
tasks — making Octree (with Quicksort and SpMxV) representative of the
simulator's intrinsic behaviour.  The output is every node's objects in
pre-order, as one ``array('d')``.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

from .base import DataSpace, WorkloadRun, make_space, spread_home
from .generators import OctreeNode, octree_size, params_for, random_octree
from ..core.task import TaskGroup
from ..timing.annotator import Block
from ..timing.isa import InstrClass

#: Per-object update work (transform computation).
UPDATE_OBJECT = Block(
    "octree-update",
    instr_counts={
        InstrClass.FP_MUL: 4, InstrClass.FP_ADD: 4,
        InstrClass.LOAD: 2, InstrClass.STORE: 2,
    },
)
#: Per-node traversal overhead.
VISIT_NODE = Block(
    "octree-visit",
    instr_counts={InstrClass.INT_ALU: 5, InstrClass.LOAD: 2},
    cond_branches=1,
    static_exits=1,
)

#: The update applied to every object (must match _native_update).
SCALE = 1.25
OFFSET = 0.5


def update_task(ctx, space: DataSpace, handles: Dict[int, object],
                node: OctreeNode, group: TaskGroup):
    """Update one node's objects, then spawn per-child subtree tasks."""
    yield ctx.compute(block=VISIT_NODE)
    handle = handles[node.nid]
    record = yield from space.read(ctx, handle)
    yield ctx.compute(block=UPDATE_OBJECT, repeat=len(node.objects))
    node.objects[:] = [SCALE * obj + OFFSET for obj in node.objects]
    yield from space.write(ctx, handle, record)
    for child in node.children:
        yield from ctx.spawn_or_inline(
            update_task, space, handles, child, group, group=group
        )


def _collect(node: OctreeNode, out: array) -> None:
    out.extend(node.objects)
    for child in node.children:
        _collect(child, out)


def _assign_handles(space: DataSpace, ctx, node: OctreeNode, n_cores: int,
                    handles: Dict[int, object]) -> None:
    handles[node.nid] = space.new(
        ctx, ("oct", node.nid), node.nid, size=32.0,
        home=spread_home(node.nid, n_cores),
    )
    for child in node.children:
        _assign_handles(space, ctx, child, n_cores, handles)


def make_workload(scale: str = "small", seed: int = 0, memory: str = "shared",
                  depth: Optional[int] = None, **_ignored) -> WorkloadRun:
    """Octree update workload instance."""
    params = params_for("octree", scale)
    depth = depth if depth is not None else params["depth"]
    objects_per_leaf = params["objects_per_leaf"]

    def fresh_tree() -> OctreeNode:
        return random_octree(depth, objects_per_leaf=objects_per_leaf, seed=seed)

    tree = fresh_tree()
    space = make_space(memory)

    def root(ctx):
        handles: Dict[int, object] = {}
        _assign_handles(space, ctx, tree, ctx.n_cores, handles)
        group = TaskGroup("octree")
        yield from ctx.spawn_or_inline(
            update_task, space, handles, tree, group, group=group
        )
        yield ctx.join(group)
        done = yield ctx.now()
        out = array("d")
        _collect(tree, out)
        return {"output": out, "work_vtime": done}

    reference_tree = fresh_tree()
    _native_update(reference_tree)
    expected = array("d")
    _collect(reference_tree, expected)

    def verify(result):
        assert len(result) == len(expected)
        for got, want in zip(result, expected):
            assert abs(got - want) < 1e-12, "octree object updated incorrectly"

    def native():
        t = fresh_tree()
        _native_update(t)
        out = array("d")
        _collect(t, out)
        return out

    return WorkloadRun(
        name="octree",
        root=root,
        verify=verify,
        native=native,
        meta={"depth": depth, "nodes": octree_size(tree), "seed": seed,
              "memory": memory},
    )


def _native_update(node: OctreeNode) -> None:
    node.objects[:] = [SCALE * obj + OFFSET for obj in node.objects]
    for child in node.children:
        _native_update(child)
