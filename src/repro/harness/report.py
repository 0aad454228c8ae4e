"""Plain-text report formatting for experiment results.

The benchmark harness prints the same rows/series the paper's figures and
tables report, as aligned text tables (one row per benchmark, one column
per core count / T value).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Align a list of rows under headers."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(c.rjust(w) for c, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_curves(
    curves: Mapping[str, Mapping[int, float]],
    sizes: Sequence[int],
    title: Optional[str] = None,
    value_label: str = "speedup",
) -> str:
    """One row per benchmark, one column per core count."""
    headers = ["benchmark"] + [f"{n} cores" for n in sizes]
    rows = []
    for name in sorted(curves):
        rows.append([name] + [curves[name].get(n, float("nan")) for n in sizes])
    table = format_table(headers, rows, title=title)
    return f"{table}\n({value_label})"


def format_validation(result: Dict) -> str:
    """Figs. 5/6 report: VT vs CL speedups plus the error row."""
    sizes = result["sizes"]
    lines = []
    kind = "polymorphic" if result["polymorphic"] else "uniform"
    headers = ["benchmark"] + [f"{n}" for n in sizes]
    rows = []
    for name in sorted(result["vt"]):
        rows.append([f"{name} VT"] + [result["vt"][name][n] for n in sizes])
        rows.append([f"{name} CL"] + [result["cl"][name][n] for n in sizes])
    lines.append(format_table(
        headers, rows,
        title=f"Speedups, {kind} 2D mesh: SiMany (VT) vs cycle-level (CL)",
    ))
    err_rows = [["geomean error %"] + [
        100 * result["errors"].get(n, float("nan")) if n > 1 else 0.0
        for n in sizes
    ]]
    lines.append(format_table(headers, err_rows))
    return "\n".join(lines)


def format_drift_tables(result: Dict) -> str:
    """Figs. 10/11 report: variations with T (baseline T=100)."""
    t_values = result["t_values"]
    headers = ["benchmark"] + [f"T={int(t)}" for t in t_values]
    sp_rows = []
    st_rows = []
    for name in sorted(result["speedup_variation_pct"]):
        sp_rows.append([name] + [
            result["speedup_variation_pct"][name][t] for t in t_values])
        st_rows.append([name] + [
            result["simtime_variation_pct"][name][t] for t in t_values])
    out = [
        format_table(headers, sp_rows,
                     title=f"Average speedup variation % "
                           f"(baseline T={int(result['baseline_t'])})"),
        format_table(headers, st_rows,
                     title="Average simulation-time variation %"),
    ]
    return "\n\n".join(out)


def format_power_law(fits: Mapping[str, tuple]) -> str:
    """Fig. 7 regression report: simulation time ~ a * cores^b."""
    headers = ["benchmark", "coefficient a", "exponent b"]
    rows = [[name, a, b] for name, (a, b) in sorted(fits.items())]
    return format_table(headers, rows,
                        title="Power-law fit: simulation time ~ a * cores^b")


def format_telemetry(snapshot: Dict, top: int = 12) -> str:
    """Human-readable summary of a telemetry snapshot (``repro.obs``).

    Renders the ``top`` largest counters as a table, every histogram as
    ASCII bars, per-core vector totals, and the profiler's phase split
    when present.  Accepts either a live ``Telemetry.snapshot()`` or a
    coordinator-merged snapshot loaded from ``metrics.json``.
    """
    from .ascii_chart import render_histogram

    lines: List[str] = []
    spec = snapshot.get("spec")
    if spec:
        lines.append(f"telemetry spec: {spec}")

    counters = snapshot.get("counters", {})
    if counters:
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        rows = [[name, value] for name, value in ranked[:top]]
        lines.append(format_table(
            ["counter", "value"], rows,
            title=f"Top counters ({min(top, len(ranked))} of {len(ranked)})"))

    for name, vec in sorted(snapshot.get("per_core", {}).items()):
        nonzero = sum(1 for v in vec if v)
        lines.append(f"{name}: total={sum(vec)} over {nonzero}/{len(vec)} "
                     f"cores, max={max(vec, default=0)}")

    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        lines.append("")
        lines.append(render_histogram(hist["bounds"], hist["counts"],
                                      title=f"{name} "
                                            f"(n={sum(hist['counts'])})"))

    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append(format_table(
            ["gauge (max)", "value"], sorted(gauges.items())))

    profile = snapshot.get("profile")
    if profile and profile.get("total_samples"):
        total = profile["total_samples"]
        lines.append("")
        rows = [
            [phase, n, 100.0 * n / total]
            for phase, n in sorted(profile["samples"].items(),
                                   key=lambda kv: (-kv[1], kv[0]))
        ]
        lines.append(format_table(
            ["phase", "samples", "%"], rows,
            title=f"Wall-clock profile ({total} samples @ "
                  f"{profile['interval_s'] * 1e3:g} ms)"))

    return "\n".join(lines) if lines else "(empty telemetry snapshot)"

