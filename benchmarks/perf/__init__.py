"""Persistent engine performance suite.

``python benchmarks/perf/check_regression.py`` re-measures the
:mod:`repro.harness.perfbench` micros and fails when any regressed
beyond the tolerance against the committed ``BENCH_engine.json`` record
(used by CI); ``python -m repro bench`` rewrites that record.
"""
