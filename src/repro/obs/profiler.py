"""Sampling wall-clock profiler attributing time to engine phases.

A frame-walking profiler (``sys.setprofile``, ``signal.setitimer`` +
traceback inspection) costs far more than the 5 % overhead budget in a
pure-Python inner loop, and its output — Python function names — is the
wrong vocabulary anyway.  Instead telemetry keeps a *current-phase
marker* (``Telemetry.phase``, a plain string attribute its engine
subscriptions update) and a daemon thread samples that
marker at a fixed interval.  One attribute read per sample, no frames,
no signals; the GIL makes the read atomic.

Phases the engine/coordinator report: ``execute`` (task slices),
``service`` (architectural message handling), ``rescue`` (no-runnable
recovery rounds), ``shadow_fixpoint`` (exact shadow recompute),
``dispatch``/``wait_workers`` (sharded coordinator), ``idle``.

The profile is statistical: with the default 5 ms interval a 2-second
run yields ~400 samples, enough to rank phases but not to time a single
short one.  Samples land in ``telemetry.profile`` on :meth:`stop` and
travel inside the telemetry snapshot.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

DEFAULT_INTERVAL_S = 0.005


class SamplingProfiler:
    """Samples ``telemetry.phase`` from a daemon thread.

    Usage::

        with SamplingProfiler(machine.telemetry):
            machine.run(root)
        print(machine.telemetry.profile["samples"])
    """

    def __init__(self, telemetry, interval_s: float = DEFAULT_INTERVAL_S):
        self.telemetry = telemetry
        self.interval_s = interval_s
        self.samples = Counter()
        self._stop = threading.Event()
        self._thread = None

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-obs-profiler")
        self._thread.start()
        return self

    def _loop(self) -> None:
        telemetry = self.telemetry
        samples = self.samples
        wait = self._stop.wait
        interval = self.interval_s
        while not wait(interval):
            samples[telemetry.phase] += 1

    def stop(self) -> dict:
        if self._thread is None:
            raise RuntimeError("profiler not started")
        self._stop.set()
        self._thread.join()
        self._thread = None
        profile = {
            "interval_s": self.interval_s,
            "total_samples": sum(self.samples.values()),
            "samples": dict(self.samples),
        }
        self.telemetry.profile = profile
        return profile

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def profile_phases(telemetry, fn, *args,
                   interval_s: float = DEFAULT_INTERVAL_S, **kwargs):
    """Run ``fn(*args, **kwargs)`` under a sampling profiler; returns
    ``(result, profile_dict)``."""
    prof = SamplingProfiler(telemetry, interval_s)
    prof.start()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile = prof.stop()
    return result, profile
