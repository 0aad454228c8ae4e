"""Tests for the experiment harness (tiny scale; shapes, not numbers)."""

import math

import pytest

from repro.arch import shared_mesh
from repro.harness import (
    clustered_experiment,
    distmem_experiment,
    drift_sweep_experiment,
    polymorphic_experiment,
    run_benchmark,
    run_cycle_level,
    shadow_time_ablation,
    sharedmem_experiment,
    simtime_experiment,
    sync_policy_ablation,
    validation_experiment,
    vt_speedup_curve,
)
from repro.harness.report import (
    format_curves,
    format_drift_tables,
    format_power_law,
    format_validation,
)

SIZES = (1, 4)
SEEDS = (0,)


class TestRunRecord:
    def test_run_benchmark(self):
        record = run_benchmark("quicksort", shared_mesh(4), scale="tiny")
        assert record.vtime > 0
        assert record.n_cores == 4
        assert record.benchmark == "quicksort"
        assert record.stats.tasks_started >= 1

    def test_run_with_native(self):
        record = run_benchmark("spmxv", shared_mesh(4), scale="tiny",
                               measure_native=True)
        assert record.native_wall > 0

    def test_run_cycle_level(self):
        record = run_cycle_level("quicksort", 4, scale="tiny")
        assert record.vtime > 0

    def test_vt_speedup_curve(self):
        curve = vt_speedup_curve("octree", shared_mesh, SIZES, scale="tiny",
                                 seeds=SEEDS)
        assert curve[1] == pytest.approx(1.0)
        assert curve[4] > 0


class TestValidationExperiment:
    def test_structure(self):
        result = validation_experiment(sizes=SIZES, scale="tiny", seeds=SEEDS,
                                       benchmarks=("quicksort", "spmxv"))
        assert set(result["vt"]) == {"quicksort", "spmxv"}
        assert set(result["cl"]) == {"quicksort", "spmxv"}
        assert 4 in result["errors"]
        assert result["errors"][4] >= 0
        # Report renders.
        assert "quicksort VT" in format_validation(result)

    def test_polymorphic_variant(self):
        result = validation_experiment(sizes=SIZES, scale="tiny", seeds=SEEDS,
                                       polymorphic=True,
                                       benchmarks=("quicksort",))
        assert result["polymorphic"]


class TestSimtimeExperiment:
    def test_structure(self):
        result = simtime_experiment(sizes=SIZES, scale="tiny", seeds=SEEDS,
                                    benchmarks=("octree",),
                                    memories=("shared",))
        assert result["normalized"]["octree"][4] > 0
        # Power-law fit needs >= 2 sizes above 1 core; absent here.
        result2 = simtime_experiment(sizes=(1, 4, 9), scale="tiny",
                                     seeds=SEEDS, benchmarks=("octree",),
                                     memories=("shared",))
        a, b = result2["power_law"]["octree"]
        assert a > 0
        assert "octree" in format_power_law(result2["power_law"])


class TestArchitectureExperiments:
    def test_sharedmem(self):
        result = sharedmem_experiment(sizes=SIZES, scale="tiny", seeds=SEEDS,
                                      benchmarks=("quicksort",))
        assert result["curves"]["quicksort"][1] == pytest.approx(1.0)
        rendered = format_curves(result["curves"], result["sizes"])
        assert "quicksort" in rendered

    def test_distmem(self):
        result = distmem_experiment(sizes=SIZES, scale="tiny", seeds=SEEDS,
                                    benchmarks=("spmxv",))
        assert result["curves"]["spmxv"][4] > 0

    def test_clustered(self):
        result = clustered_experiment(sizes=(1, 16), n_clusters=4,
                                      scale="tiny", seeds=SEEDS,
                                      benchmarks=("octree",))
        assert "octree" in result["regular"]
        assert "octree" in result["clustered"]
        assert "octree" in result["exec_time_change_pct"]
        assert "octree" in result["crossover_cores"]

    def test_polymorphic(self):
        result = polymorphic_experiment(sizes=SIZES, scale="tiny", seeds=SEEDS,
                                        benchmarks=("octree",))
        assert "octree" in result["speedup_change_pct"]


class TestDriftSweep:
    def test_structure(self):
        result = drift_sweep_experiment(
            t_values=(50.0, 500.0), baseline_t=100.0, sizes=(4,),
            scale="tiny", seeds=SEEDS, benchmarks=("octree",),
        )
        assert set(result["t_values"]) == {50.0, 500.0}
        assert 50.0 in result["speedup_variation_pct"]["octree"]
        assert 500.0 in result["simtime_variation_pct"]["octree"]
        assert "T=50" in format_drift_tables(result)

    def test_baseline_added_if_missing(self):
        result = drift_sweep_experiment(
            t_values=(50.0,), baseline_t=100.0, sizes=(4,),
            scale="tiny", seeds=SEEDS, benchmarks=("octree",),
        )
        assert 100.0 in result["vtimes"]["octree"]


class TestAblations:
    def test_sync_policy_ablation(self):
        result = sync_policy_ablation(
            policies=("spatial", "conservative"), n_cores=4, scale="tiny",
            seeds=SEEDS, benchmarks=("octree",),
        )
        assert result["vtimes"]["octree"]["spatial"] > 0
        assert "spatial" in result["deviation_pct"]["octree"]
        assert result["deviation_pct"]["octree"]["conservative"] == 0.0

    def test_shadow_ablation(self):
        result = shadow_time_ablation(n_cores=4, scale="tiny", seeds=SEEDS,
                                      benchmark="octree")
        assert set(result) == {"shadow_fast", "shadow_exact", "no_shadow"}
        for mode in result.values():
            assert mode["vtime"] > 0
