"""Block timing annotations.

A *block* is a piece of code directly executed by the local CPU without any
interaction with other components (paper, Section II-A).  Its virtual-time
cost is the sum of its instruction-class costs plus branch-prediction
penalties.  Annotations may be static (``Block`` instances built once) or
computed during execution (``BlockAnnotator.dynamic_cost``), matching the
paper's two annotation styles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from .branch import BranchPredictorModel
from .isa import CostTable, InstrClass


@dataclass(frozen=True)
class Block:
    """A statically annotated instruction block.

    ``instr_counts`` maps instruction classes to (possibly fractional,
    when amortized) instruction counts.  ``cond_branches`` are the
    dynamically predicted conditional branches in the block;
    ``static_exits`` are statically known mispredictions (loop exits).
    """

    name: str
    instr_counts: Mapping[InstrClass, float] = field(default_factory=dict)
    cond_branches: float = 0.0
    static_exits: float = 0.0

    def __post_init__(self) -> None:
        for klass, count in self.instr_counts.items():
            if not isinstance(klass, InstrClass):
                raise TypeError(f"instruction class expected, got {klass!r}")
            if count < 0:
                raise ValueError(f"negative count for {klass}")
        if self.cond_branches < 0 or self.static_exits < 0:
            raise ValueError("branch counts must be non-negative")


class BlockAnnotator:
    """Computes virtual-time costs of blocks for one core.

    Each simulated core owns an annotator so that probabilistic branch
    outcomes are drawn from a per-core deterministic stream and so that
    polymorphic architectures can scale each core's cost table.
    """

    def __init__(
        self,
        cost_table: CostTable,
        predictor: Optional[BranchPredictorModel] = None,
        sample_branches: bool = True,
    ) -> None:
        self.cost_table = cost_table
        self.predictor = predictor or BranchPredictorModel()
        self.sample_branches = sample_branches
        self._static_cache: Dict[int, float] = {}
        self._repeat_cache: Dict[tuple, float] = {}

    def base_cost(self, block: Block) -> float:
        """Instruction cost of a block, without dynamic branch penalties."""
        key = id(block)
        cached = self._static_cache.get(key)
        if cached is not None:
            return cached
        cost = 0.0
        for klass, count in block.instr_counts.items():
            cost += self.cost_table.cost_of(klass, count)
        # Conditional branches execute as 1-cycle instructions on top of any
        # penalty; static exits are unconditional-class instructions that
        # always pay the pipeline-flush penalty.
        cost += self.cost_table.cost_of(InstrClass.BRANCH_COND, block.cond_branches)
        cost += self.cost_table.cost_of(InstrClass.BRANCH_UNCOND, block.static_exits)
        cost += block.static_exits * self.predictor.static_exit_penalty()
        self._static_cache[key] = cost
        return cost

    def cost(self, block: Block) -> float:
        """Full virtual-time cost of executing ``block`` once."""
        cost = self.base_cost(block)
        branches = block.cond_branches
        if branches:
            if self.sample_branches and float(branches).is_integer():
                cost += self.predictor.sample(int(branches))
            else:
                cost += self.predictor.expected(branches)
        return cost

    def cost_repeated(self, block: Block, repeat: float) -> float:
        """Cost of executing ``block`` ``repeat`` times.

        Integral single executions sample branch outcomes; repeated or
        fractional executions use the expected branch penalty (amortized),
        which is how the paper attributes approximate timings to coarse
        program parts at once.
        """
        if repeat == 1.0:
            return self.cost(block)
        if repeat == 0.0:
            return 0.0
        # Fully deterministic (amortized branches use the expected
        # penalty, never the sampled one), so the result is cacheable
        # per (block, repeat); only single executions above draw from
        # the stochastic predictor stream.
        key = (id(block), repeat)
        cached = self._repeat_cache.get(key)
        if cached is not None:
            return cached
        base = self.base_cost(block) * repeat
        branches = block.cond_branches * repeat
        if branches:
            base += self.predictor.expected(branches)
        self._repeat_cache[key] = base
        return base

    def dynamic_cost(
        self,
        instr_counts: Mapping[InstrClass, float],
        cond_branches: float = 0.0,
        static_exits: float = 0.0,
    ) -> float:
        """Annotation computed during execution (paper's dynamic mode).

        Used by workloads whose block sizes depend on run-time values, e.g.
        a partition step over ``n`` elements.
        """
        block = Block(
            "dynamic",
            instr_counts=instr_counts,
            cond_branches=cond_branches,
            static_exits=static_exits,
        )
        # Bypass the static cache: dynamic blocks are throwaway objects.
        cost = 0.0
        for klass, count in block.instr_counts.items():
            cost += self.cost_table.cost_of(klass, count)
        cost += self.cost_table.cost_of(InstrClass.BRANCH_COND, block.cond_branches)
        cost += self.cost_table.cost_of(InstrClass.BRANCH_UNCOND, block.static_exits)
        cost += block.static_exits * self.predictor.static_exit_penalty()
        if cond_branches:
            if self.sample_branches and float(cond_branches).is_integer():
                cost += self.predictor.sample(int(cond_branches))
            else:
                cost += self.predictor.expected(cond_branches)
        return cost
