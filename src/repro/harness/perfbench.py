"""The kernel label of the end-to-end benchmark's records.

Simulation speed is measured by ``benchmarks/e2e`` alone.  This module
stays only because ``benchmarks/e2e/run.py`` imports
:func:`effective_kernel` on every run to label its record (CI
``e2e-smoke`` exercises the import); it goes when that import is
dropped (ROADMAP item 0(b)).
"""


def effective_kernel() -> str:
    """The engine kernel name a benchmark record carries; there is one."""
    return "vectorized"
