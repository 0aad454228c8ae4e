"""Experiment harness: metrics, per-figure runners, text reports.

Names resolve on first use, so a job that only records its run
(``results``, ``trace``) loads no figure runner.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".": ("ascii_chart", "metrics", "report", "results", "trace"),
    ".results": ("run_record",),
    ".trace": ("Tracer",),
    ".experiments": (
        "DEFAULT_SIZES", "DEFAULT_VALIDATION_SIZES", "RunRecord",
        "cl_speedup_curve", "clustered_experiment", "dispatch_ablation",
        "distmem_experiment", "drift_sweep_experiment", "parallelism_study",
        "polymorphic_experiment", "run_benchmark", "run_cycle_level",
        "shadow_time_ablation", "sharedmem_experiment", "simtime_experiment",
        "sync_policy_ablation", "validation_experiment", "vt_speedup_curve",
    ),
})

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
