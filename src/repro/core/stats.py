"""Simulation statistics.

Counters the evaluation needs: completion virtual time (for speedups),
host wall-clock (for normalized simulation time, Fig. 7), event/message
counts, context switches, drift stalls and out-of-order processing events.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, Optional


@dataclass
class SimStats:
    """Counters collected over one simulation run."""

    n_cores: int = 0
    completion_vtime: float = 0.0
    wall_seconds: float = 0.0
    actions: int = 0
    compute_actions: int = 0
    mem_accesses: int = 0
    cell_accesses: int = 0
    remote_cell_accesses: int = 0
    context_switches: int = 0
    tasks_started: int = 0
    tasks_spawned_remote: int = 0
    tasks_run_inline: int = 0
    drift_stalls: int = 0
    lock_waiver_runs: int = 0
    out_of_order_msgs: int = 0
    shadow_recomputes: int = 0
    messages_by_kind: Counter = field(default_factory=Counter)
    #: Concurrently-runnable core counts sampled during the run (only when
    #: EngineParams.parallelism_sample_interval is set).
    parallelism_samples: list = field(default_factory=list)
    noc: Dict[str, float] = field(default_factory=dict)
    core_busy_cycles: Dict[int, float] = field(default_factory=dict)

    @property
    def total_messages(self) -> int:
        """Architectural messages of all kinds emitted during the run."""
        return sum(self.messages_by_kind.values())

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for report tables."""
        out = {name: getattr(self, name) for name in SCALAR_FIELDS}
        out["total_messages"] = self.total_messages
        for kind, count in self.messages_by_kind.items():
            out[f"msgs_{kind.value}"] = count
        out.update({f"noc_{k}": v for k, v in self.noc.items()})
        return out


#: The scalar fields, in declaration order (``as_dict`` reports them),
#: and the event counters among them (sharded workers' stats merge by
#: summing these).  Derived, so a new counter is reported and merged.
SCALAR_FIELDS = tuple(f.name for f in fields(SimStats)
                      if f.type in ("int", "float"))
COUNTER_FIELDS = tuple(f.name for f in fields(SimStats)
                       if f.type == "int" and f.name != "n_cores")


class WallTimer:
    """Context manager measuring host wall-clock into a SimStats."""

    def __init__(self, stats: SimStats) -> None:
        self.stats = stats
        self._start: Optional[float] = None

    def __enter__(self) -> "WallTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.stats.wall_seconds += time.perf_counter() - self._start
