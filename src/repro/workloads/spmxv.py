"""Sparse matrix-vector multiply (paper, Section V).

Matrices are stored in a row-oriented CSR format (alike to Harwell-Boeing).
The paper uses 30 Matrix Market matrices plus randomly generated ones; we
generate random and structured (banded) matrices with the same row/nnz
shape parameters.

Rows are distributed with the tasks that process them; the input vector is
broadcast (read-only), so the benchmark exhibits little data movement and
no cell contention — which is why its distributed-memory results barely
differ from the shared-memory ones (Fig. 9), and why it is representative
of the simulator's intrinsic behaviour (Fig. 7).

It scales well until the row blocks run out relative to the core count
(the paper: tops at 64 cores for their datasets).  The output ``y`` is one
``array('d')``, allocated zeroed before the first task stores its rows.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from .base import WorkloadRun
from .generators import params_for, random_sparse_matrix, structured_sparse_matrix
from ..core.task import TaskGroup
from ..timing.annotator import Block
from ..timing.isa import InstrClass

#: Per-nonzero work: load value + column index + x element, multiply-add.
NNZ_WORK = Block(
    "spmxv-nnz",
    instr_counts={
        InstrClass.FP_MUL: 1, InstrClass.FP_ADD: 1,
        InstrClass.LOAD: 3, InstrClass.INT_ALU: 2,
    },
)
#: Per-row overhead (row pointer handling, result store).
ROW_WORK = Block(
    "spmxv-row",
    instr_counts={InstrClass.INT_ALU: 4, InstrClass.LOAD: 2, InstrClass.STORE: 1},
    cond_branches=1,
    static_exits=1,
)

#: Rows per leaf task.
ROW_CHUNK = 16


def multiply_task(ctx, indptr, indices, data, x, y, lo: int, hi: int,
                  group: TaskGroup):
    """Compute y[lo:hi) = A[lo:hi) @ x, splitting row ranges recursively."""
    if hi - lo > ROW_CHUNK:
        mid = (lo + hi) // 2
        yield from ctx.spawn_or_inline(
            multiply_task, indptr, indices, data, x, y, mid, hi, group,
            group=group,
        )
        yield from multiply_task(ctx, indptr, indices, data, x, y, lo, mid, group)
        return
    nnz = int(indptr[hi] - indptr[lo])
    rows = hi - lo
    yield ctx.compute(block=ROW_WORK, repeat=rows)
    if nnz:
        yield ctx.compute(block=NNZ_WORK, repeat=nnz)
        # Matrix values stream from memory; x has some reuse, y is written.
        yield ctx.mem(reads=2 * nnz, obj=("spmxv-A", lo // 64),
                      l1_hit_fraction=0.2)
        yield ctx.mem(reads=nnz, obj="spmxv-x", l1_hit_fraction=0.6)
    yield ctx.mem(writes=rows, obj=("spmxv-y", lo // 64))
    for row in range(lo, hi):
        start, end = int(indptr[row]), int(indptr[row + 1])
        acc = 0.0
        for k in range(start, end):
            acc += data[k] * x[indices[k]]
        y[row] = acc


def make_workload(scale: str = "small", seed: int = 0, memory: str = "shared",
                  rows: Optional[int] = None, nnz_per_row: Optional[int] = None,
                  structured: bool = False, **_ignored) -> WorkloadRun:
    """SpMxV workload instance.

    ``structured=True`` uses a banded matrix standing in for the Matrix
    Market collection entries used in the validation experiments.
    """
    params = params_for("spmxv", scale)
    rows = rows if rows is not None else params["rows"]
    nnz_per_row = nnz_per_row if nnz_per_row is not None else params["nnz_per_row"]
    if structured:
        matrix = structured_sparse_matrix(rows, bandwidth=max(2, nnz_per_row // 2),
                                          seed=seed)
    else:
        matrix = random_sparse_matrix(rows, nnz_per_row, seed=seed)
    rng = np.random.default_rng(seed + 12345)
    x = rng.random(rows)
    indptr = matrix.indptr
    indices = matrix.indices
    data = matrix.data

    def root(ctx):
        y = array("d", [0.0]) * rows
        group = TaskGroup("spmxv")
        yield from multiply_task(ctx, indptr, indices, data, x, y,
                                 0, rows, group)
        yield ctx.join(group)
        done = yield ctx.now()
        return {"output": y, "work_vtime": done}

    expected = matrix @ x

    def verify(result):
        got = np.asarray(result)
        assert got.shape == expected.shape
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12), \
            "SpMxV result mismatch"

    def native():
        y = array("d", [0.0]) * rows
        for row in range(rows):
            start, end = int(indptr[row]), int(indptr[row + 1])
            acc = 0.0
            for k in range(start, end):
                acc += data[k] * x[indices[k]]
            y[row] = acc
        return y

    return WorkloadRun(
        name="spmxv",
        root=root,
        verify=verify,
        native=native,
        meta={"rows": rows, "nnz": int(matrix.nnz), "seed": seed,
              "memory": memory, "structured": structured},
    )
