"""Evaluation metrics (paper, Section VI).

* *virtual-time speedup*: completion virtual time on one core divided by
  completion virtual time on N cores, averaged over datasets;
* *error vs the cycle-level referee*: relative speedup error per benchmark,
  aggregated as a geometric mean (the paper reports 8.8 % at 16 cores,
  18.8 % at 32, 22.9 % at 64 for uniform meshes);
* *normalized simulation time*: simulator wall-clock divided by native
  execution wall-clock of the same computation (Fig. 7), with a power-law
  regression of simulation time against the simulated core count.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np


def speedup_curve(vtimes: Mapping[int, float]) -> Dict[int, float]:
    """Speedups from a {n_cores: virtual completion time} map.

    The 1-core entry is the baseline and must be present.
    """
    if 1 not in vtimes:
        raise ValueError("speedup needs the 1-core baseline")
    base = vtimes[1]
    if base <= 0:
        raise ValueError("baseline virtual time must be positive")
    return {n: base / vt for n, vt in sorted(vtimes.items())}


def mean_speedup_curves(curves: Sequence[Mapping[int, float]]) -> Dict[int, float]:
    """Average speedup curves over datasets (arithmetic mean per size)."""
    if not curves:
        raise ValueError("no curves to average")
    sizes = set(curves[0])
    for curve in curves[1:]:
        if set(curve) != sizes:
            raise ValueError("curves cover different core counts")
    return {n: float(np.mean([c[n] for c in curves])) for n in sorted(sizes)}


def relative_error(value: float, reference: float) -> float:
    """|value - reference| / reference."""
    if reference == 0:
        raise ValueError("reference must be nonzero")
    return abs(value - reference) / abs(reference)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; zero values are floored to a small epsilon."""
    vals = [max(float(v), 1e-12) for v in values]
    if not vals:
        raise ValueError("geometric mean of nothing")
    return float(np.exp(np.mean(np.log(vals))))


def geomean_error(
    vt_curves: Mapping[str, Mapping[int, float]],
    cl_curves: Mapping[str, Mapping[int, float]],
    n_cores: int,
    floor: float = 1e-3,
) -> float:
    """Geometric mean of per-benchmark speedup errors at one core count.

    Errors are floored at 0.1 % — an exact agreement would otherwise
    collapse the geometric mean to zero and hide every other benchmark.
    """
    errors = []
    for name, vt in vt_curves.items():
        cl = cl_curves[name]
        errors.append(max(relative_error(vt[n_cores], cl[n_cores]), floor))
    return geomean(errors)


def normalized_simulation_time(sim_wall: float, native_wall: float) -> float:
    """Simulation wall-clock normalized to native execution (Fig. 7)."""
    if native_wall <= 0:
        raise ValueError("native wall time must be positive")
    return sim_wall / native_wall


def power_law_fit(points: Mapping[int, float]) -> Tuple[float, float]:
    """Fit ``time = a * cores^b`` by log-log least squares; returns (a, b).

    The paper reports that average simulation time grows as a square law
    (b close to 2) with a small coefficient.
    """
    xs = np.array(sorted(points))
    ys = np.array([points[x] for x in xs], dtype=float)
    if len(xs) < 2:
        raise ValueError("need at least two points for a regression")
    if (ys <= 0).any() or (xs <= 0).any():
        raise ValueError("power-law fit needs positive data")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(np.exp(intercept)), float(slope)


def percent_change(value: float, baseline: float) -> float:
    """Signed percent change vs a baseline (Fig. 10-11 tables)."""
    if baseline == 0:
        raise ValueError("baseline must be nonzero")
    return 100.0 * (value - baseline) / baseline


def crossover_point(
    curve_a: Mapping[int, float], curve_b: Mapping[int, float]
) -> float:
    """Geometric interpolation of where curve_b overtakes curve_a.

    Used for the clustered-architecture turning point (paper: ~78 cores on
    average).  Returns +inf when b never overtakes a, 0 when it always is.
    """
    sizes = sorted(set(curve_a) & set(curve_b))
    if not sizes:
        raise ValueError("curves do not overlap")
    prev = None
    for n in sizes:
        diff = curve_b[n] - curve_a[n]
        if diff >= 0:
            if prev is None:
                return 0.0
            p_n, p_diff = prev
            if diff == p_diff:
                return float(n)
            # Interpolate in log2(core count) space.
            frac = -p_diff / (diff - p_diff)
            return float(2 ** (math.log2(p_n) + frac * (math.log2(n) - math.log2(p_n))))
        prev = (n, diff)
    return math.inf
