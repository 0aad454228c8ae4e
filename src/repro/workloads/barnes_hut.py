"""Barnes-Hut N-body force computation (paper, Section V).

Only the scalability of the second phase — computing the force on each
body by traversing the space-partitioning tree from the root — is
reported, assuming the built tree has been broadcast to all cores before
the phase starts.  Each body's computation is independent; the resulting
communication patterns are highly irregular because different bodies
traverse different, overlapping parts of the tree.

Datasets follow the paper: 128- and 200-body sets.  Verification compares
accelerations against a sequential run of the identical tree algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .base import DataSpace, WorkloadRun, make_space, spread_home
from .generators import Body, params_for, random_bodies
from ..core.task import TaskGroup
from ..timing.annotator import Block
from ..timing.isa import InstrClass

#: Opening test at an internal node (distance computation + MAC compare).
MAC_TEST = Block(
    "bh-mac",
    instr_counts={
        InstrClass.FP_ADD: 6, InstrClass.FP_MUL: 6, InstrClass.LOAD: 4,
        InstrClass.INT_ALU: 2,
    },
    cond_branches=1,
)
#: Body-body / body-cell interaction (force accumulation with sqrt/div).
INTERACTION = Block(
    "bh-interact",
    instr_counts={
        InstrClass.FP_ADD: 9, InstrClass.FP_MUL: 9, InstrClass.FP_DIV: 2,
        InstrClass.LOAD: 4, InstrClass.STORE: 3,
    },
)

#: Barnes-Hut opening angle.
THETA = 0.5
#: Bodies per leaf of the partitioning tree.
LEAF_CAP = 4
#: Force tasks handle body ranges; ranges split down to this size.
BODY_CHUNK = 4
EPS2 = 1e-4  # softening


@dataclass
class BHNode:
    """A node of the spatial octree (center of mass of its subtree)."""

    nid: int
    center: Tuple[float, float, float]
    half: float
    mass: float = 0.0
    com: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    bodies: List[int] = field(default_factory=list)  # leaves only
    children: List["BHNode"] = field(default_factory=list)


def build_tree(bodies: List[Body]) -> BHNode:
    """Build the Barnes-Hut octree (host-side; phase 1 is not simulated)."""
    counter = [0]

    def new_node(center, half) -> BHNode:
        node = BHNode(counter[0], center, half)
        counter[0] += 1
        return node

    root = new_node((0.5, 0.5, 0.5), 0.5)

    def insert(node: BHNode, idx: int, depth: int = 0) -> None:
        if not node.children and (len(node.bodies) < LEAF_CAP or depth > 24):
            node.bodies.append(idx)
            return
        if not node.children:
            old = node.bodies
            node.bodies = []
            for oct_id in range(8):
                dx = 0.5 if oct_id & 1 else -0.5
                dy = 0.5 if oct_id & 2 else -0.5
                dz = 0.5 if oct_id & 4 else -0.5
                h = node.half / 2
                node.children.append(new_node(
                    (node.center[0] + dx * h * 2 / 2,
                     node.center[1] + dy * h * 2 / 2,
                     node.center[2] + dz * h * 2 / 2),
                    h,
                ))
            for other in old:
                insert(node, other, depth)
        body = bodies[idx]
        oct_id = ((body.x >= node.center[0])
                  | ((body.y >= node.center[1]) << 1)
                  | ((body.z >= node.center[2]) << 2))
        insert(node.children[oct_id], idx, depth + 1)

    for idx in range(len(bodies)):
        insert(root, idx)

    def summarize(node: BHNode) -> Tuple[float, Tuple[float, float, float]]:
        if not node.children:
            mass = sum(bodies[i].mass for i in node.bodies)
            if mass > 0:
                com = (
                    sum(bodies[i].mass * bodies[i].x for i in node.bodies) / mass,
                    sum(bodies[i].mass * bodies[i].y for i in node.bodies) / mass,
                    sum(bodies[i].mass * bodies[i].z for i in node.bodies) / mass,
                )
            else:
                com = node.center
            node.mass, node.com = mass, com
            return mass, com
        total = 0.0
        acc = [0.0, 0.0, 0.0]
        for child in node.children:
            m, com = summarize(child)
            total += m
            acc[0] += m * com[0]
            acc[1] += m * com[1]
            acc[2] += m * com[2]
        if total > 0:
            node.com = (acc[0] / total, acc[1] / total, acc[2] / total)
        else:
            node.com = node.center
        node.mass = total
        return node.mass, node.com

    summarize(root)
    return root


def _pair_accel(px, py, pz, qx, qy, qz, qmass) -> Tuple[float, float, float]:
    dx, dy, dz = qx - px, qy - py, qz - pz
    r2 = dx * dx + dy * dy + dz * dz + EPS2
    inv = qmass / (r2 * math.sqrt(r2))
    return dx * inv, dy * inv, dz * inv


def _accel_on(bodies: List[Body], idx: int, node: BHNode,
              visits: Optional[List[int]] = None) -> Tuple[float, float, float]:
    """Sequential tree-walk acceleration on one body (reference + kernel)."""
    body = bodies[idx]
    ax = ay = az = 0.0
    stack = [node]
    while stack:
        cur = stack.pop()
        if visits is not None:
            visits[0] += 1
        if cur.mass == 0.0:
            continue
        if not cur.children:
            for other in cur.bodies:
                if other == idx:
                    continue
                o = bodies[other]
                gx, gy, gz = _pair_accel(body.x, body.y, body.z,
                                         o.x, o.y, o.z, o.mass)
                ax, ay, az = ax + gx, ay + gy, az + gz
                if visits is not None:
                    visits[1] += 1
            continue
        dx = cur.com[0] - body.x
        dy = cur.com[1] - body.y
        dz = cur.com[2] - body.z
        dist = math.sqrt(dx * dx + dy * dy + dz * dz) + 1e-12
        if (2 * cur.half) / dist < THETA:
            gx, gy, gz = _pair_accel(body.x, body.y, body.z,
                                     cur.com[0], cur.com[1], cur.com[2], cur.mass)
            ax, ay, az = ax + gx, ay + gy, az + gz
            if visits is not None:
                visits[1] += 1
        else:
            stack.extend(cur.children)
    return ax, ay, az


def force_task(ctx, space: DataSpace, bodies, tree_handles, root_node,
               accels, lo: int, hi: int, group: TaskGroup):
    """Compute accelerations for bodies[lo:hi), splitting recursively."""
    if hi - lo > BODY_CHUNK:
        mid = (lo + hi) // 2
        yield from ctx.spawn_or_inline(
            force_task, space, bodies, tree_handles, root_node, accels,
            mid, hi, group, group=group,
        )
        yield from force_task(ctx, space, bodies, tree_handles, root_node,
                              accels, lo, mid, group)
        return
    for idx in range(lo, hi):
        visits = [0, 0]  # nodes visited, interactions computed
        accel = _accel_on(bodies, idx, root_node, visits)
        # Timing: one tree-node record read + MAC test per visited node,
        # one interaction kernel per computed interaction.
        sample = tree_handles[idx % len(tree_handles)]
        for _ in range(min(visits[0], 4)):
            yield from space.read(ctx, sample)
        if visits[0] > 4:
            yield ctx.mem(reads=visits[0] - 4, obj=("bh-tree", idx % 16),
                          l1_hit_fraction=0.3)
        yield ctx.compute(block=MAC_TEST, repeat=visits[0])
        yield ctx.compute(block=INTERACTION, repeat=visits[1])
        yield ctx.mem(writes=1, obj=("bh-acc", idx))
        accels[idx] = accel


def _flatten(node: BHNode, out: List[BHNode]) -> None:
    out.append(node)
    for child in node.children:
        _flatten(child, out)


def make_workload(scale: str = "small", seed: int = 0, memory: str = "shared",
                  bodies: Optional[int] = None, **_ignored) -> WorkloadRun:
    """Barnes-Hut (force phase) workload instance."""
    n_bodies = bodies if bodies is not None else params_for("barnes_hut", scale)["bodies"]
    body_list = random_bodies(n_bodies, seed=seed)
    tree = build_tree(body_list)
    nodes: List[BHNode] = []
    _flatten(tree, nodes)
    space = make_space(memory)

    def root(ctx):
        n_cores = ctx.n_cores
        # The tree was broadcast before the phase; on distributed memory the
        # upper nodes are cells that force tasks keep pulling around.
        handles = [
            space.new(ctx, ("bh-node", node.nid), node, size=64.0,
                      home=spread_home(node.nid, n_cores))
            for node in nodes[: max(16, len(nodes) // 4)]
        ]
        accels: List = [None] * n_bodies
        group = TaskGroup("bh")
        yield from force_task(ctx, space, body_list, handles, tree, accels,
                              0, n_bodies, group)
        yield ctx.join(group)
        done = yield ctx.now()
        return {"output": accels, "work_vtime": done}

    expected = [_accel_on(body_list, i, tree) for i in range(n_bodies)]

    def verify(result):
        assert len(result) == n_bodies
        for got, want in zip(result, expected):
            assert got is not None, "missing acceleration"
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9 * max(1.0, abs(w)), "acceleration mismatch"

    def native():
        return [_accel_on(body_list, i, tree) for i in range(n_bodies)]

    return WorkloadRun(
        name="barnes_hut",
        root=root,
        verify=verify,
        native=native,
        meta={"bodies": n_bodies, "seed": seed, "memory": memory,
              "tree_nodes": len(nodes)},
    )
