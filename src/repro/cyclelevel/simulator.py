"""The cycle-level validation referee.

Stands in for the paper's hybrid cycle-level/system-level simulator based
on the UNISIM framework (Section V): a conservative (strict virtual-time
order) engine over the same workloads, with

* fully simulated cache-coherence effects (directory + L1 invalidations),
* L1 caches split into separate instruction and data caches (per-block
  I-fetch costs and residency-tracked D-caches),
* a 5-stage pipeline CPI overhead,
* L1 speed *not* scaled with core speed on polymorphic architectures
  (the implementation difference the paper says offsets Fig. 6's CL curves).

The comparison protocol matches the paper: coherence timings are also
enabled in SiMany during validation runs, so the two simulators charge the
same kinds of penalties and differ in *how* they time them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .caches import CycleLevelMemory
from .pipeline import PipelineModel
from ..arch.config import POLY_FAST_FACTOR, POLY_SLOW_FACTOR
from ..core.engine import EngineParams, Machine
from ..core.sync import ConservativeSync
from ..network.topology import square_mesh
from ..runtime.runtime import Runtime


def build_cycle_level_machine(
    n_cores: int,
    polymorphic: bool = False,
    seed: int = 0,
    pipeline: Optional[PipelineModel] = None,
    speed_factors: Optional[Sequence[float]] = None,
    l1_capacity: int = 64,
) -> Machine:
    """Assemble a conservative, coherence-detailed referee machine."""
    pipeline = pipeline or PipelineModel()
    topo = square_mesh(n_cores)
    params = EngineParams(
        compute_overhead_factor=pipeline.overhead_factor,
        icache_block_cycles=pipeline.icache_block_cycles,
        # Strict ordering wants short slices so cores interleave finely.
        slice_actions=4,
    )
    if speed_factors is None and polymorphic and n_cores > 1:
        speed_factors = [
            POLY_SLOW_FACTOR if c % 2 == 0 else POLY_FAST_FACTOR
            for c in range(n_cores)
        ]
    machine = Machine(
        topo,
        ConservativeSync(),
        params,
        drift_bound=100.0,  # unused by the conservative policy
        shadow_enabled=False,
        speed_factors=speed_factors,
        branch_penalty=pipeline.mispredict_penalty,
        seed=seed,
    )
    machine.attach_memory(CycleLevelMemory(l1_capacity=l1_capacity))
    machine.attach_runtime(Runtime())
    return machine
