"""Experiment harness: metrics, per-figure runners, text reports."""

from . import ascii_chart, metrics, report, results, trace
from .results import run_record
from .trace import Tracer
from .experiments import (
    DEFAULT_SIZES,
    DEFAULT_VALIDATION_SIZES,
    RunRecord,
    cl_speedup_curve,
    clustered_experiment,
    dispatch_ablation,
    distmem_experiment,
    drift_sweep_experiment,
    parallelism_study,
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

__all__ = [
    "DEFAULT_SIZES",
    "Tracer",
    "ascii_chart",
    "trace",
    "DEFAULT_VALIDATION_SIZES",
    "RunRecord",
    "cl_speedup_curve",
    "clustered_experiment",
    "dispatch_ablation",
    "distmem_experiment",
    "drift_sweep_experiment",
    "metrics",
    "parallelism_study",
    "polymorphic_experiment",
    "report",
    "results",
    "run_benchmark",
    "run_cycle_level",
    "run_record",
    "shadow_time_ablation",
    "sharedmem_experiment",
    "simtime_experiment",
    "sync_policy_ablation",
    "validation_experiment",
    "vt_speedup_curve",
]
