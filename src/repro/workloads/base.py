"""Workload infrastructure.

The paper's benchmarks are written once against the run-time API and run on
both shared-memory and distributed-memory architecture types (Section V).
We achieve the same with a small data-access layer: a :class:`DataSpace`
maps logical records to either plain shared-memory objects (timed as bank
accesses with coherence effects) or distributed cells (timed as local L2
hits or DATA_REQUEST round trips), so each benchmark's task code is
memory-organization agnostic.

Every workload provides a :class:`WorkloadRun`: a root task function, a
verifier that checks the *program output* against an independent reference
(sorting really sorts, shortest paths match a sequential Dijkstra, ...),
and a native closure that performs the equivalent computation without
simulation — the denominator of the paper's normalized simulation time
(Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional

from ..core.task import TaskContext

#: Scale presets: dataset sizes for quick tests, benchmark runs, and the
#: paper's full sizes.
SCALES = ("tiny", "small", "medium", "paper")


class DataSpace:
    """Abstract record store; subclasses time accesses differently."""

    kind = "abstract"

    def new(self, ctx: Optional[TaskContext], key: Any, data: Any,
            size: float = 64.0, home: int = 0):
        """Create a record; returns an opaque handle."""
        raise NotImplementedError

    def read(self, ctx: TaskContext, handle) -> Iterator:
        """Yieldable sub-generator; returns the record's data."""
        raise NotImplementedError

    def write(self, ctx: TaskContext, handle, data) -> Iterator:
        """Yieldable sub-generator; stores ``data`` in the record."""
        raise NotImplementedError

    def update(self, ctx: TaskContext, handle, fn: Callable) -> Iterator:
        """Atomic read-modify-write; returns the new data."""
        raise NotImplementedError


class _SharedRecord:
    __slots__ = ("key", "data", "size")

    def __init__(self, key, data, size):
        self.key = key
        self.data = data
        self.size = size


class SharedSpace(DataSpace):
    """Records live in uniform-latency shared banks (+ L1/coherence)."""

    kind = "shared"

    def new(self, ctx, key, data, size=64.0, home=0):
        return _SharedRecord(key, data, size)

    def read(self, ctx, handle):
        yield ctx.mem(reads=1, obj=handle.key)
        return handle.data

    def write(self, ctx, handle, data):
        handle.data = data
        yield ctx.mem(writes=1, obj=handle.key)

    def update(self, ctx, handle, fn):
        yield ctx.mem(reads=1, writes=1, obj=handle.key)
        handle.data = fn(handle.data)
        return handle.data


class DistSpace(DataSpace):
    """Records are run-time managed cells (exclusive, migrating)."""

    kind = "distributed"

    def new(self, ctx, key, data, size=64.0, home=0):
        if ctx is not None:
            machine = ctx.machine
        else:
            raise ValueError("DistSpace.new requires a task context")
        fence = machine.fence
        if fence is not None:
            # Shard mode: keep the cell's home in the creating core's
            # region so DATA traffic never crosses a shard boundary
            # (pure function of (home, creator) — identical placement on
            # the serial and sharded backends).
            home = fence.remap_home(home, ctx.core_id)
        return machine.memory.new_cell(data=data, size=size, home=home)

    def read(self, ctx, handle):
        cell = yield ctx.cell(handle, "r")
        return cell.data

    def write(self, ctx, handle, data):
        cell = yield ctx.cell(handle, "w")
        cell.data = data

    def update(self, ctx, handle, fn):
        cell = yield ctx.cell(handle, "rw")
        cell.data = fn(cell.data)
        return cell.data


def make_space(memory: str) -> DataSpace:
    """Data space matching an architecture's memory organization.

    NUMA machines use the shared-record flavour: records are plain objects
    whose accesses the NUMA memory model times by home-bank placement.
    """
    if memory in ("shared", "numa"):
        return SharedSpace()
    if memory == "distributed":
        return DistSpace()
    raise ValueError(f"unknown memory organization {memory!r}")


@dataclass
class WorkloadRun:
    """One runnable benchmark instance.

    Produced by :func:`repro.workloads.get_workload`; the triple of
    root task, output verifier and native reference is what lets the
    harness check program correctness and normalize simulation time
    (paper Fig. 7) for every benchmark uniformly.

    Output contract: the root returns ``{"output": out, "work_vtime":
    t}`` where ``out`` is one flat, typed ``array.array`` on either
    backend, and ``native()`` returns the same type.  The typecode is
    ``'q'`` for quicksort (both versions) and connected_components
    labels, ``'d'`` for octree objects, dijkstra distances (``inf`` =
    unreachable), spmxv's ``y`` and barnes_hut (3 doubles per body, in
    body order; NaN where a body got no acceleration).  ``verify``
    accepts that array, and ``==`` between two of them is a bool, so
    result dicts still compare with ``==``.

    Example::

        from repro import build_machine, get_workload
        from repro.arch import shared_mesh

        w = get_workload("quicksort", scale="tiny", seed=0,
                         memory="shared")
        result = build_machine(shared_mesh(16)).run(w.root)
        w.verify(result["output"])      # raises if the sort is wrong
        assert result["output"] == w.native()
    """

    name: str
    root: Callable  # root(ctx) generator
    verify: Callable[[Any], None]  # raises AssertionError on bad output
    native: Callable[[], Any]  # unsimulated equivalent computation
    meta: Dict[str, Any] = field(default_factory=dict)


def spread_home(i: int, n_cores: int) -> int:
    """Deterministic round-robin home placement for distributed records."""
    return i % n_cores
