"""Quicksort (paper, Section V).

Two parallel versions, as in the paper:

* **shared-memory**: works on arrays; after each pivot step a new task is
  spawned to handle one of the sub-arrays, the other is handled inline.
  The theoretical maximum speedup is ``log2(n)/2`` for balanced arrays of
  ``n`` elements (the first, serial partition pass dominates the critical
  path) — about 8.3 for the paper's 100 000-element arrays.

* **distributed-memory**: an adaptation to lists, avoiding the transfer of
  whole sub-arrays to remote nodes.  Pivot steps are distributed and
  gradually construct a binary search tree; browsing the list in order is
  then tantamount to traversing the constructed tree.  Element chunks are
  cells fetched once per pivot step, so data movement stays low and the
  distributed results track the shared-memory ones (Fig. 9).

An instance of either version is a recipe: it holds ``(n, seed)`` and
regenerates its dataset where that data is used, when the root starts,
when ``verify`` checks an output and when ``native`` runs.  A resolved
instance therefore holds no data, in every process that resolves one.
Both versions return the sorted values as one ``array('q')``: the shared
version sorts a list of ints in place and packs it once, when the root
returns.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

from .base import WorkloadRun, spread_home
from .generators import params_for, random_array
from ..core.task import TaskGroup
from ..timing.annotator import Block
from ..timing.isa import InstrClass

#: Per-element partition work: load, compare (cond branch), possible swap.
PARTITION_ELEM = Block(
    "qsort-partition-elem",
    instr_counts={InstrClass.INT_ALU: 3, InstrClass.LOAD: 1, InstrClass.STORE: 0.5},
    cond_branches=1,
)
#: Per-element insertion-sort work for small base cases.
INSERTION_ELEM = Block(
    "qsort-insertion-elem",
    instr_counts={InstrClass.INT_ALU: 4, InstrClass.LOAD: 2, InstrClass.STORE: 1},
    cond_branches=2,
)
#: Fixed overhead of a pivot step (pivot selection, bookkeeping).
PIVOT_SETUP = Block(
    "qsort-pivot-setup",
    instr_counts={InstrClass.INT_ALU: 12, InstrClass.LOAD: 3, InstrClass.STORE: 2},
    cond_branches=2,
    static_exits=1,
)

#: Below this segment length the task sorts inline (task granularity knob).
BASE_CASE = 32
#: Elements per chunk cell in the distributed list version.
CHUNK = 32


def _partition(arr: List[int], lo: int, hi: int) -> int:
    """Hoare partition of arr[lo:hi); returns split point p.

    Guarantees lo < p < hi, so both sub-ranges [lo, p) and [p, hi) are
    strictly smaller than the input (median-of-ends pivot moved to lo).
    """
    mid = (lo + hi - 1) // 2
    if arr[mid] < arr[lo]:
        arr[mid], arr[lo] = arr[lo], arr[mid]
    pivot = arr[lo]
    i, j = lo - 1, hi
    while True:
        i += 1
        while arr[i] < pivot:
            i += 1
        j -= 1
        while arr[j] > pivot:
            j -= 1
        if i >= j:
            return j + 1
        arr[i], arr[j] = arr[j], arr[i]


def _seg_obj(arr_id: int, lo: int) -> tuple:
    """Coherence/placement object for an array segment (64-element grain).

    Keys must be stable across runs (NUMA home placement hashes them), so
    the array is identified by a run-stable label, not id().
    """
    return ("qsort", arr_id, lo // 64)


def sort_task(ctx, arr: List[int], lo: int, hi: int, group: TaskGroup):
    """Sort arr[lo:hi) in place, spawning one half after each pivot step."""
    n = hi - lo
    if n <= 1:
        return
    arr_id = 0  # one array per workload instance; stable across runs
    if n <= BASE_CASE:
        yield ctx.compute(block=INSERTION_ELEM, repeat=n * max(1, n // 4))
        yield ctx.mem(reads=2 * n, writes=n, obj=_seg_obj(arr_id, lo),
                      l1_hit_fraction=0.8)
        arr[lo:hi] = sorted(arr[lo:hi])
        return
    yield ctx.compute(block=PIVOT_SETUP)
    yield ctx.compute(block=PARTITION_ELEM, repeat=n)
    yield ctx.mem(reads=n, writes=n // 2, obj=_seg_obj(arr_id, lo),
                  l1_hit_fraction=0.5)
    mid = _partition(arr, lo, hi)
    # Spawn the smaller side; recurse inline on the larger one.
    if mid - lo <= hi - mid:
        small = (lo, mid)
        large = (mid, hi)
    else:
        small = (mid, hi)
        large = (lo, mid)
    yield from ctx.spawn_or_inline(sort_task, arr, small[0], small[1], group,
                                   group=group)
    yield from sort_task(ctx, arr, large[0], large[1], group)


def _check_sorted(result, n: int, seed: int, what: str) -> None:
    """Raise ``AssertionError`` unless ``result`` is the sorted dataset
    ``random_array(n, seed)``: same length, same values in order."""
    expected = random_array(n, seed=seed)
    expected.sort()
    if not np.array_equal(np.asarray(result), expected):
        raise AssertionError(f"{what} output is not sorted")


def make_shared(scale: str = "small", seed: int = 0, n: Optional[int] = None,
                **_ignored) -> WorkloadRun:
    """Shared-memory Quicksort workload instance."""
    n = n if n is not None else params_for("quicksort", scale)["n"]

    def root(ctx):
        arr = random_array(n, seed=seed).tolist()
        group = TaskGroup("qsort")
        yield from sort_task(ctx, arr, 0, len(arr), group)
        yield ctx.join(group)
        done = yield ctx.now()
        return {"output": array("q", arr), "work_vtime": done}

    def verify(result):
        _check_sorted(result, n, seed, "quicksort")

    def native():
        arr = random_array(n, seed=seed).tolist()
        _native_quicksort(arr, 0, len(arr))
        return array("q", arr)

    return WorkloadRun(
        name="quicksort",
        root=root,
        verify=verify,
        native=native,
        meta={"n": n, "seed": seed, "version": "shared"},
    )


def _native_quicksort(arr: List[int], lo: int, hi: int) -> None:
    """Host-native equivalent computation (Fig. 7 denominator)."""
    while hi - lo > 1:
        if hi - lo <= BASE_CASE:
            arr[lo:hi] = sorted(arr[lo:hi])
            return
        mid = _partition(arr, lo, hi)
        if mid - lo < hi - mid:
            _native_quicksort(arr, lo, mid)
            lo = mid
        else:
            _native_quicksort(arr, mid, hi)
            hi = mid


# -- distributed list version ---------------------------------------------


_bst_counter = [0]


class BstNode:
    """A node of the gradually constructed binary search tree."""

    __slots__ = ("nid", "pivot", "left", "right", "values")

    def __init__(self, pivot: Optional[int] = None):
        self.nid = _bst_counter[0]
        _bst_counter[0] += 1
        self.pivot = pivot
        self.left: Optional["BstNode"] = None
        self.right: Optional["BstNode"] = None
        self.values: Optional[List[int]] = None  # leaves only


def _chunks(values: List[int]) -> List[List[int]]:
    return [values[i:i + CHUNK] for i in range(0, len(values), CHUNK)]


def dist_sort_task(ctx, space, chunk_handles, node: BstNode, group: TaskGroup):
    """Distributed pivot step over a list of chunk cells.

    Fetches each chunk (ownership moves here), partitions its values around
    the pivot, creates fresh local chunk cells for both sides, and spawns a
    task for one side.
    """
    values: List[int] = []
    for handle in chunk_handles:
        chunk = yield from space.read(ctx, handle)
        yield ctx.compute(block=PARTITION_ELEM, repeat=len(chunk))
        values.extend(chunk)
    n = len(values)
    if n <= BASE_CASE:
        yield ctx.compute(block=INSERTION_ELEM, repeat=n * max(1, n // 4))
        node.values = sorted(values)
        node.pivot = None
        return
    yield ctx.compute(block=PIVOT_SETUP)
    pivot = values[n // 2]
    left = [v for v in values if v < pivot]
    right = [v for v in values if v > pivot]
    equal = [v for v in values if v == pivot]
    node.pivot = pivot
    node.values = equal
    node.left = BstNode()
    node.right = BstNode()
    home = ctx.core_id
    left_handles = [
        space.new(ctx, ("qsl", node.nid, i), c, size=8.0 * len(c), home=home)
        for i, c in enumerate(_chunks(left))
    ]
    right_handles = [
        space.new(ctx, ("qsr", node.nid, i), c, size=8.0 * len(c), home=home)
        for i, c in enumerate(_chunks(right))
    ]
    yield ctx.mem(writes=n, l1_hit_fraction=0.5)
    if left:
        yield from ctx.spawn_or_inline(
            dist_sort_task, space, left_handles, node.left, group, group=group
        )
    if right:
        yield from ctx.spawn_or_inline(
            dist_sort_task, space, right_handles, node.right, group, group=group
        )


def _traverse(node: Optional[BstNode], out: array) -> None:
    if node is None:
        return
    _traverse(node.left, out)
    if node.values:
        out.extend(node.values)
    _traverse(node.right, out)


def make_distributed(scale: str = "small", seed: int = 0,
                     n: Optional[int] = None, **_ignored) -> WorkloadRun:
    """Distributed-memory (list/BST) Quicksort workload instance."""
    from .base import DistSpace

    n = n if n is not None else params_for("quicksort", scale)["n"]

    def root(ctx):
        space = DistSpace()
        n_cores = ctx.n_cores
        data = random_array(n, seed=seed).tolist()
        handles = [
            space.new(ctx, ("qs0", i), chunk, size=8.0 * len(chunk),
                      home=spread_home(i, n_cores))
            for i, chunk in enumerate(_chunks(data))
        ]
        tree = BstNode()
        group = TaskGroup("qsort-dist")
        yield from dist_sort_task(ctx, space, handles, tree, group)
        yield ctx.join(group)
        done = yield ctx.now()
        out = array("q")
        _traverse(tree, out)
        return {"output": out, "work_vtime": done}

    def verify(result):
        _check_sorted(result, n, seed, "distributed quicksort")

    def native():
        tree = BstNode()
        _native_dist_sort(random_array(n, seed=seed).tolist(), tree)
        out = array("q")
        _traverse(tree, out)
        return out

    return WorkloadRun(
        name="quicksort",
        root=root,
        verify=verify,
        native=native,
        meta={"n": n, "seed": seed, "version": "distributed"},
    )


def _native_dist_sort(values: List[int], node: BstNode) -> None:
    n = len(values)
    if n <= BASE_CASE:
        node.values = sorted(values)
        return
    pivot = values[n // 2]
    node.pivot = pivot
    node.values = [v for v in values if v == pivot]
    node.left = BstNode()
    node.right = BstNode()
    _native_dist_sort([v for v in values if v < pivot], node.left)
    _native_dist_sort([v for v in values if v > pivot], node.right)


def make_workload(scale: str = "small", seed: int = 0, memory: str = "shared",
                  **kwargs) -> WorkloadRun:
    """Quicksort workload instance: the list/BST version on distributed
    memory, the array version otherwise."""
    if memory == "distributed":
        return make_distributed(scale=scale, seed=seed, **kwargs)
    return make_shared(scale=scale, seed=seed, **kwargs)
