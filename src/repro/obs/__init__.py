"""Observability subsystem: telemetry registry, Chrome traces, profiler.

Opt-in via ``ArchConfig.telemetry`` (CLI ``--telemetry[=spec]``); see
``docs/observability.md`` for the full story.  Everything here is
observation-only — enabling telemetry never changes simulation results
(golden numbers are pinned with it on in ``tests/test_obs.py``).
The exports resolve on first use, so a run without telemetry loads
neither the registry nor the Chrome-trace writer.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".chrome_trace": ("build_chrome_trace", "validate_chrome_trace"),
    ".profiler": ("SamplingProfiler", "profile_phases"),
    ".registry": ("TELEMETRY_PARTS", "Histogram", "MetricsRegistry",
                  "Telemetry", "merge_snapshots", "parse_spec"),
})

__all__ = [
    "TELEMETRY_PARTS", "Histogram", "MetricsRegistry", "Telemetry",
    "merge_snapshots", "parse_spec", "build_chrome_trace",
    "validate_chrome_trace", "SamplingProfiler", "profile_phases",
    "collect_snapshot", "collect_live_snapshot", "write_outputs",
    "load_metrics", "summarize_metrics",
]


def collect_snapshot(backend) -> Optional[dict]:
    """A backend's telemetry snapshot (``None`` with telemetry off):
    the serial machine's registry, or the sharded backend's merged
    coordinator + worker view."""
    return backend.telemetry_snapshot()


def collect_live_snapshot(backend, retries: int = 5) -> Optional[dict]:
    """Snapshot a backend's telemetry while it may still be running.

    :func:`collect_snapshot` iterates the registry's plain dicts; when a
    simulation thread is concurrently incrementing counters that can
    raise ``RuntimeError: dictionary changed size during iteration``.
    The registry only ever *adds* keys, so retrying is sound: a retry
    sees a superset of the previous attempt.  Used by the service layer
    (``repro.service``) for per-job progress snapshots; returns the
    last error-free snapshot or ``None`` when every attempt raced or
    the backend has no telemetry.
    """
    for _ in range(max(1, retries)):
        try:
            return collect_snapshot(backend)
        except RuntimeError:
            continue
    return None


def write_outputs(out_dir: str, metrics: Optional[dict] = None,
                  timeline: Optional[dict] = None) -> dict:
    """Write ``metrics.json`` / ``timeline.json`` under ``out_dir``
    (created if missing); returns ``{name: path}`` for what was written."""
    from .chrome_trace import validate_chrome_trace

    os.makedirs(out_dir, exist_ok=True)
    written = {}
    if metrics is not None:
        path = os.path.join(out_dir, "metrics.json")
        with open(path, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written["metrics"] = path
    if timeline is not None:
        validate_chrome_trace(timeline)
        path = os.path.join(out_dir, "timeline.json")
        with open(path, "w") as fh:
            json.dump(timeline, fh)
        written["timeline"] = path
    return written


def load_metrics(path: str) -> dict:
    """Load a metrics snapshot from a ``metrics.json`` file or a
    ``--telemetry-out`` directory containing one."""
    if os.path.isdir(path):
        path = os.path.join(path, "metrics.json")
    with open(path) as fh:
        return json.load(fh)


def summarize_metrics(snapshot: dict, top: int = 12) -> str:
    """Human-readable digest of a snapshot: top counters, per-core
    totals, histograms and the profile — the body of
    ``python -m repro obs summarize``."""
    from ..harness.report import format_telemetry

    return format_telemetry(snapshot, top=top)
