"""Unit tests for report formatting."""

import math

from repro.harness import report


class TestFormatTable:
    def test_alignment(self):
        out = report.format_table(["a", "bbb"], [[1, 2.5], [10, 0.123456]])
        lines = out.splitlines()
        assert len(lines) == 4
        header = lines[0]
        assert "a" in header and "bbb" in header
        # All rows have the same width.
        assert len({len(line) for line in lines}) == 1

    def test_title(self):
        out = report.format_table(["x"], [[1]], title="My Table")
        assert out.startswith("My Table\n========")

    def test_float_formats(self):
        out = report.format_table(["v"], [[0.0001], [123456.0], [math.inf]])
        assert "inf" in out
        assert "0.0001" in out
        assert "1.23e+05" in out or "123456" in out


class TestFormatCurves:
    def test_rows_sorted(self):
        curves = {"zeta": {1: 1.0, 4: 2.0}, "alpha": {1: 1.0, 4: 3.0}}
        out = report.format_curves(curves, [1, 4], title="T")
        assert out.index("alpha") < out.index("zeta")
        assert "(speedup)" in out

    def test_missing_sizes_nan(self):
        out = report.format_curves({"a": {1: 1.0}}, [1, 4])
        assert "nan" in out


class TestFormatValidation:
    def _result(self):
        return {
            "sizes": [1, 4],
            "vt": {"qs": {1: 1.0, 4: 2.0}},
            "cl": {"qs": {1: 1.0, 4: 2.2}},
            "errors": {4: 0.09},
            "polymorphic": False,
        }

    def test_contains_both_rows(self):
        out = report.format_validation(self._result())
        assert "qs VT" in out
        assert "qs CL" in out
        assert "geomean error %" in out
        assert "uniform" in out

    def test_polymorphic_label(self):
        result = self._result()
        result["polymorphic"] = True
        assert "polymorphic" in report.format_validation(result)


class TestFormatDrift:
    def test_tables(self):
        result = {
            "t_values": [50.0, 500.0],
            "baseline_t": 100.0,
            "speedup_variation_pct": {"qs": {50.0: 1.0, 500.0: -2.0}},
            "simtime_variation_pct": {"qs": {50.0: 20.0, 500.0: -50.0}},
        }
        out = report.format_drift_tables(result)
        assert "T=50" in out and "T=500" in out
        assert "speedup variation" in out
        assert "simulation-time variation" in out


class TestPowerLawReport:
    def test_format(self):
        out = report.format_power_law({"qs": (0.5, 1.9)})
        assert "qs" in out
        assert "exponent" in out
