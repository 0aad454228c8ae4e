"""Struct-of-arrays core-state plane: the engine's hot state in columns.

``CoreStateArrays`` holds every per-core scalar the hot loops touch —
virtual times, published (shadow) times, the spawn-birth floor, run-state
flags, the run-time service clock — as contiguous typed columns, one slot
per core.  It is the **single source of truth**: the
:class:`~repro.core.fabric.VirtualTimeFabric` and the per-core
:class:`~repro.core.coreunit.CoreUnit` objects hold references into the
same columns (the CoreUnits expose them as properties, i.e. thin views
for the cold paths), and the sharded backend's shared-memory planes
(``repro.parallel.channels.SharedRoundBoard``) mirror the same layout —
publication is a vectorized gather instead of a Python loop.

Columns are ``array.array`` instances rather than numpy ndarrays:
scalar indexing on an ``array('d')`` costs about half of boxing a numpy
scalar, which matters because the engine's innermost loops index single
cores, while the buffer protocol still gives zero-copy numpy views
(``vtime_np`` etc.) for the bulk operations (plane publication, floor-cache
resets).  The views write through to the same memory, so scalar and
vector code paths can never disagree.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

import numpy as np

INF = float("inf")

#: (name, typecode, fill) for every column, in layout order.
COLUMNS: Tuple[Tuple[str, str, float], ...] = (
    ("vtime", "d", 0.0),           # per-core virtual time
    ("published", "d", INF),       # published / shadow virtual time
    ("births_min", "d", INF),      # earliest outstanding spawn birth
    ("floor_lb", "d", -INF),       # cached lower bound on the drift floor
    ("service_clock", "d", 0.0),   # run-time/NI message service clock
    ("busy_cycles", "d", 0.0),     # accumulated busy cycles
    ("last_arrival", "d", 0.0),    # last processed message arrival
    ("active", "b", 0),            # 1 while the core owns a virtual time
    ("stalled", "b", 0),           # 1 while drift-stalled
    ("in_ready", "b", 0),          # 1 while queued in the ready ring
)

_NP_DTYPES = {"d": np.float64, "b": np.int8}


class CoreStateArrays:
    """Typed per-core state columns plus the mesh's neighbour tuples.

    Example::

        soa = CoreStateArrays(4, [(1,), (0, 2), (1, 3), (2,)])
        soa.vtime[2] = 10.0          # scalar write (array('d'))
        assert soa.vtime_np[2] == 10.0   # zero-copy numpy view
    """

    __slots__ = tuple(name for name, _, _ in COLUMNS) + tuple(
        f"{name}_np" for name, _, _ in COLUMNS) + ("n", "neighbors")

    def __init__(self, n: int, neighbors: Sequence[Sequence[int]]) -> None:
        if len(neighbors) != n:
            raise ValueError("neighbors list must have one entry per core")
        self.n = n
        self.neighbors: List[tuple] = [tuple(nbrs) for nbrs in neighbors]
        for name, code, fill in COLUMNS:
            col = array(code, [fill] * n) if n else array(code)
            setattr(self, name, col)
            setattr(self, f"{name}_np",
                    np.frombuffer(col, dtype=_NP_DTYPES[code]))

    def check_view_coherence(self) -> None:
        """Assert every numpy view aliases its backing column bit-exactly.

        Cheap invariant used by the property tests: the views are
        created with ``np.frombuffer`` and must never be copies.
        """
        for name, code, _ in COLUMNS:
            col = getattr(self, name)
            view = getattr(self, f"{name}_np")
            if view.base is None and self.n:
                raise AssertionError(f"column {name} view is a copy")
            if list(view) != list(col):
                raise AssertionError(f"column {name} view diverged")
