"""Unit tests for block annotations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.timing.annotator import Block, BlockAnnotator
from repro.timing.branch import BranchPredictorModel
from repro.timing.isa import InstrClass, default_cost_table


def make_annotator(accuracy=1.0):
    return BlockAnnotator(
        default_cost_table(),
        predictor=BranchPredictorModel(accuracy=accuracy, seed=0),
    )


class TestBlock:
    def test_simple_block(self):
        block = Block("b", instr_counts={InstrClass.INT_ALU: 10})
        assert block.instr_counts[InstrClass.INT_ALU] == 10

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Block("b", instr_counts={InstrClass.INT_ALU: -1})

    def test_non_class_key_rejected(self):
        with pytest.raises(TypeError):
            Block("b", instr_counts={"int_alu": 1})

    def test_negative_branches_rejected(self):
        with pytest.raises(ValueError):
            Block("b", cond_branches=-1)


class TestAnnotator:
    def test_base_cost_sums_classes(self):
        annot = make_annotator()
        block = Block("b", instr_counts={
            InstrClass.INT_ALU: 10, InstrClass.FP_MUL: 2,
        })
        expected = 10 * 1.0 + 2 * 6.0
        assert annot.base_cost(block) == pytest.approx(expected)

    def test_base_cost_cached(self):
        annot = make_annotator()
        block = Block("b", instr_counts={InstrClass.INT_ALU: 5})
        assert annot.base_cost(block) == annot.base_cost(block)
        assert id(block) in annot._static_cache

    def test_static_exits_always_pay_flush(self):
        annot = make_annotator()
        block = Block("b", static_exits=2)
        # 2 unconditional-class instructions + 2 pipeline flushes of 5.
        assert annot.cost(block) == pytest.approx(2 * 1.0 + 2 * 5.0)

    def test_perfect_predictor_branch_cost(self):
        annot = make_annotator(accuracy=1.0)
        block = Block("b", cond_branches=10)
        # Branches execute as 1-cycle instructions; no mispredictions.
        assert annot.cost(block) == pytest.approx(10.0)

    def test_expected_mode_for_fractional_branches(self):
        annot = make_annotator(accuracy=0.9)
        block = Block("b", cond_branches=100.5)
        assert annot.cost(block) == pytest.approx(
            100.5 * 1.0 + 0.1 * 5.0 * 100.5)

    def test_cost_repeated_zero(self):
        annot = make_annotator()
        block = Block("b", instr_counts={InstrClass.INT_ALU: 7})
        assert annot.cost_repeated(block, 0.0) == 0.0

    def test_cost_repeated_scales(self):
        annot = make_annotator(accuracy=1.0)
        block = Block("b", instr_counts={InstrClass.INT_ALU: 7})
        assert annot.cost_repeated(block, 10) == pytest.approx(70.0)

    def test_cost_repeated_uses_expected_branches(self):
        annot = make_annotator(accuracy=0.9)
        block = Block("b", cond_branches=1)
        cost = annot.cost_repeated(block, 1000)
        assert cost == pytest.approx(1000 * 1.0 + 0.1 * 5.0 * 1000)

    def test_dynamic_cost_matches_static(self):
        annot = make_annotator(accuracy=1.0)
        counts = {InstrClass.FP_ADD: 3, InstrClass.LOAD: 4}
        block = Block("b", instr_counts=counts)
        assert annot.dynamic_cost(counts) == pytest.approx(annot.cost(block))

    def test_scaled_table_scales_costs(self):
        slow = BlockAnnotator(
            default_cost_table().scaled(2.0),
            predictor=BranchPredictorModel(accuracy=1.0, seed=0),
        )
        fast = make_annotator()
        block = Block("b", instr_counts={InstrClass.INT_MUL: 5})
        assert slow.base_cost(block) == pytest.approx(2 * fast.base_cost(block))

    @given(
        alu=st.integers(min_value=0, max_value=1000),
        loads=st.integers(min_value=0, max_value=1000),
        branches=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50)
    def test_cost_nonnegative_and_at_least_base(self, alu, loads, branches):
        annot = make_annotator(accuracy=0.5)
        block = Block("b", instr_counts={
            InstrClass.INT_ALU: alu, InstrClass.LOAD: loads,
        }, cond_branches=branches)
        cost = annot.cost(block)
        assert cost >= annot.base_cost(block) - 1e-9
        assert cost <= annot.base_cost(block) + branches * 5.0 + 1e-9
