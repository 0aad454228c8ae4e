"""Unit tests for evaluation metrics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import metrics


class TestSpeedupCurve:
    def test_basic(self):
        curve = metrics.speedup_curve({1: 100.0, 4: 25.0})
        assert curve == {1: 1.0, 4: 4.0}

    def test_missing_baseline(self):
        with pytest.raises(ValueError):
            metrics.speedup_curve({4: 25.0})

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            metrics.speedup_curve({1: 0.0, 4: 25.0})

    def test_mean_curves(self):
        merged = metrics.mean_speedup_curves([
            {1: 1.0, 4: 2.0}, {1: 1.0, 4: 4.0},
        ])
        assert merged == {1: 1.0, 4: 3.0}

    def test_mean_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            metrics.mean_speedup_curves([{1: 1.0}, {1: 1.0, 4: 2.0}])

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.mean_speedup_curves([])


class TestErrors:
    def test_relative_error(self):
        assert metrics.relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert metrics.relative_error(9.0, 10.0) == pytest.approx(0.1)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            metrics.relative_error(1.0, 0.0)

    def test_geomean(self):
        assert metrics.geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_error_floor(self):
        vt = {"a": {4: 2.0}, "b": {4: 3.0}}
        cl = {"a": {4: 2.0}, "b": {4: 2.0}}  # a: exact, b: 50% off
        err = metrics.geomean_error(vt, cl, 4)
        assert err == pytest.approx(math.sqrt(1e-3 * 0.5))

    @given(
        values=st.lists(st.floats(min_value=0.01, max_value=100),
                        min_size=1, max_size=20)
    )
    @settings(max_examples=40)
    def test_geomean_between_min_and_max(self, values):
        g = metrics.geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9


class TestNormalizedSimTime:
    def test_basic(self):
        assert metrics.normalized_simulation_time(10.0, 0.1) == 100.0

    def test_zero_native_rejected(self):
        with pytest.raises(ValueError):
            metrics.normalized_simulation_time(1.0, 0.0)


class TestPowerLaw:
    def test_exact_square_law(self):
        points = {n: 3.0 * n ** 2 for n in (2, 8, 32, 128)}
        a, b = metrics.power_law_fit(points)
        assert a == pytest.approx(3.0, rel=1e-6)
        assert b == pytest.approx(2.0, rel=1e-6)

    def test_linear(self):
        points = {n: 5.0 * n for n in (2, 4, 8)}
        _, b = metrics.power_law_fit(points)
        assert b == pytest.approx(1.0, rel=1e-6)

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            metrics.power_law_fit({4: 1.0})

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            metrics.power_law_fit({2: 0.0, 4: 1.0})

    @given(
        a=st.floats(min_value=0.1, max_value=10),
        b=st.floats(min_value=0.1, max_value=3),
    )
    @settings(max_examples=40)
    def test_recovers_parameters(self, a, b):
        points = {n: a * n ** b for n in (2, 8, 32)}
        got_a, got_b = metrics.power_law_fit(points)
        assert got_a == pytest.approx(a, rel=1e-6)
        assert got_b == pytest.approx(b, rel=1e-6)


class TestPercentChange:
    def test_increase(self):
        assert metrics.percent_change(12.0, 10.0) == pytest.approx(20.0)

    def test_decrease(self):
        assert metrics.percent_change(8.0, 10.0) == pytest.approx(-20.0)

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            metrics.percent_change(1.0, 0.0)


class TestCrossover:
    def test_b_overtakes_midway(self):
        a = {4: 2.0, 16: 3.0, 64: 3.5}
        b = {4: 1.0, 16: 2.0, 64: 5.0}
        cross = metrics.crossover_point(a, b)
        assert 16 < cross < 64

    def test_b_always_ahead(self):
        a = {4: 1.0, 16: 1.0}
        b = {4: 2.0, 16: 2.0}
        assert metrics.crossover_point(a, b) == 0.0

    def test_b_never_overtakes(self):
        a = {4: 5.0, 16: 5.0}
        b = {4: 1.0, 16: 2.0}
        assert math.isinf(metrics.crossover_point(a, b))

    def test_no_overlap_rejected(self):
        with pytest.raises(ValueError):
            metrics.crossover_point({4: 1.0}, {16: 1.0})

    def test_exact_touch(self):
        a = {4: 2.0, 16: 2.0}
        b = {4: 1.0, 16: 2.0}
        assert metrics.crossover_point(a, b) == 16.0

