"""Tests for the execution tracer."""

import dataclasses

import pytest

from repro.arch import build_machine, shared_mesh
from repro.harness.trace import (Tracer, _canonical_task, merge_traces,
                                 trace_digest)
from repro.workloads import get_workload

from conftest import fanout_root


def traced_run(n_cores=8, root=None, **cfg_overrides):
    cfg = shared_mesh(n_cores)
    if cfg_overrides:
        cfg = dataclasses.replace(cfg, **cfg_overrides)
    machine = build_machine(cfg)
    tracer = Tracer(machine)
    machine.run(root or fanout_root(8, child_cycles=500))
    return machine, tracer


class TestSpans:
    def test_spans_recorded(self):
        _, tracer = traced_run()
        assert tracer.spans
        # Root + 8 children, each at least one span.
        names = {s.task.split("#")[0] for s in tracer.spans}
        assert "child" in names
        assert "root" in names

    def test_span_times_ordered(self):
        _, tracer = traced_run()
        for span in tracer.spans:
            assert span.end >= span.start >= 0.0

    def test_spans_disjoint_under_conservative(self):
        """Virtual-time spans on one core may overlap across idle gaps
        (clocks restart after idleness), but in *recording order* each
        span starts at or after the previous one's start on that core,
        and under spatial sync the overlap stays bounded by the global
        drift."""
        machine, tracer = traced_run()
        by_core = {}
        for span in tracer.spans:
            by_core.setdefault(span.core, []).append(span)
        bound = machine.fabric.global_drift_bound() + 200
        for spans in by_core.values():
            for a, b in zip(spans, spans[1:]):
                # b was recorded after a finished (host order); any virtual
                # backjump is a clock restart bounded by the drift.
                assert a.end - b.start <= bound

    def test_workload_traceable(self):
        workload = get_workload("octree", scale="tiny", seed=0)
        machine = build_machine(shared_mesh(8))
        tracer = Tracer(machine)
        result = machine.run(workload.root)
        workload.verify(result["output"])
        assert len(tracer.spans) >= machine.stats.tasks_started


class TestStallsAndMessages:
    def test_messages_recorded(self):
        _, tracer = traced_run()
        kinds = {m.kind for m in tracer.messages}
        assert "probe" in kinds
        assert "task_spawn" in kinds

    def test_message_arrival_after_send(self):
        _, tracer = traced_run()
        for msg in tracer.messages:
            if msg.src != msg.dst:
                assert msg.arrival > msg.send_time

    def test_messages_optional(self):
        machine = build_machine(shared_mesh(4))
        tracer = Tracer(machine, trace_messages=False)
        machine.run(fanout_root(4))
        assert not tracer.messages
        assert tracer.spans

    def test_stalls_recorded_under_tight_drift(self):
        from conftest import recursive_root

        _, tracer = traced_run(n_cores=16, root=recursive_root(6),
                               drift_bound=50.0)
        assert tracer.stalls
        for stall in tracer.stalls:
            assert stall["vtime"] > stall["floor"]


class TestAnalysis:
    def test_utilization_bounds(self):
        machine, tracer = traced_run()
        util = tracer.core_utilization()
        assert set(util) == set(range(machine.n_cores))
        for value in util.values():
            assert 0.0 <= value <= 1.0
        assert util[0] > 0  # root core worked

    def test_export_structure(self):
        _, tracer = traced_run()
        data = tracer.export()
        assert set(data) == {"spans", "stalls", "messages"}
        assert all("core" in s for s in data["spans"])

    def test_gantt_renders(self):
        machine, tracer = traced_run()
        chart = tracer.render_gantt(width=40)
        assert "core 0" in chart
        assert "#" in chart
        lines = [line for line in chart.splitlines() if "|" in line]
        assert all(len(line.split("|")[1]) == 40 for line in lines)

    def test_gantt_empty(self):
        machine = build_machine(shared_mesh(2))
        tracer = Tracer(machine)
        assert "no spans" in tracer.render_gantt()

    def test_gantt_core_filter(self):
        _, tracer = traced_run()
        chart = tracer.render_gantt(cores=[0])
        assert "core 0" in chart
        assert "core 1" not in chart


class TestOpenSpanFlush:
    """Regression: tasks still executing when a run stops (vtime horizon
    or end-of-run) used to vanish from ``export()`` and
    ``core_utilization()`` because their spans never closed."""

    @staticmethod
    def chunked_root(chunks=10000, cycles=50.0):
        # Many small compute actions: the slice budget interrupts the
        # task *between* actions, so when the vtime horizon stops the
        # run the task is still current and its span still open.  (A
        # single long compute is one action and finishes within one
        # slice, closing the span.)
        def root(ctx):
            for _ in range(chunks):
                yield ctx.compute(cycles=cycles)
            return "done"

        return root

    def stopped_run(self, **kwargs):
        machine = build_machine(shared_mesh(8))
        tracer = Tracer(machine)
        machine.run(self.chunked_root(), stop_at_vtime=5000.0, **kwargs)
        return machine, tracer

    def test_premise_spans_are_still_open(self):
        _, tracer = self.stopped_run()
        assert tracer._open, (
            "the stop_at_vtime horizon was meant to interrupt running "
            "children; if this fires the scenario needs a longer child")

    def test_export_includes_open_spans(self):
        _, tracer = self.stopped_run()
        open_cores = set(tracer._open)
        exported = tracer.export()
        flushed = [s for s in exported["spans"]
                   if s["core"] in open_cores]
        assert flushed
        for span in exported["spans"]:
            assert span["end"] >= span["start"]

    def test_utilization_sees_open_spans(self):
        machine = build_machine(shared_mesh(4))
        tracer = Tracer(machine)
        machine.run(self.chunked_root(), stop_at_vtime=5000.0)
        # The only span in the whole run is still open; before the fix
        # utilization reported an all-idle machine.
        assert tracer._open
        assert not tracer.spans
        assert tracer.core_utilization()[0] > 0.0

    def test_export_is_repeatable_and_non_mutating(self):
        _, tracer = self.stopped_run()
        n_open = len(tracer._open)
        first = tracer.export()
        second = tracer.export()
        assert first == second
        assert len(tracer._open) == n_open
        assert all(s.end >= s.start for s in tracer.spans)


class TestCanonicalDigest:
    def run_trace(self, seed=0):
        machine = build_machine(shared_mesh(8))
        tracer = Tracer(machine)
        workload = get_workload("quicksort", scale="tiny", seed=seed)
        machine.run(workload.root)
        return tracer.export()

    def test_canonical_task_strips_tid(self):
        assert _canonical_task("child#17") == "child"
        assert _canonical_task("child") == "child"
        assert _canonical_task("weird#name") == "weird#name"

    def test_digest_stable_across_identical_runs(self):
        assert trace_digest(self.run_trace()) == \
            trace_digest(self.run_trace())

    def test_digest_sensitive_to_events(self):
        trace = self.run_trace()
        baseline = trace_digest(trace)
        trace["spans"][0]["end"] += 1.0
        assert trace_digest(trace) != baseline

    def test_merge_is_order_independent_under_digest(self):
        a, b = self.run_trace(seed=0), self.run_trace(seed=1)
        assert trace_digest(merge_traces([a, b])) == \
            trace_digest(merge_traces([b, a]))
