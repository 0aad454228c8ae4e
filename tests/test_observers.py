"""The observation seam (docs/internals.md §7): the tracer, the sanitizer
and telemetry subscribe to the events a Machine emits; none of them
replaces a method on the machine, its fabric, its NoC or its policy."""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch import build_machine, shared_mesh
from repro.workloads import get_workload


def _shadows(obj):
    """Instance attributes that hide a callable class attribute."""
    cls = type(obj)
    return sorted(name for name in vars(obj)
                  if callable(getattr(cls, name, None)))


def test_no_observer_shadows_a_method():
    cfg = dataclasses.replace(shared_mesh(16), sanitize=True,
                              collect_trace=True, telemetry="all")
    machine = build_machine(cfg)
    parts = (machine, machine.fabric, machine.noc, machine.policy)
    # The fabric's ``on_publish_increase`` is a constructor callback,
    # not a class method, so it is no shadow.
    assert [_shadows(obj) for obj in parts] == [[], [], [], []]
    workload = get_workload("quicksort", scale="tiny", seed=0)
    workload.verify(machine.run(workload.root)["output"])
    assert [_shadows(obj) for obj in parts] == [[], [], [], []]
    # ... and all three observers did watch the run.
    assert machine.trace["spans"] and machine.sanitizer.checks["publish"]
    assert machine.telemetry.snapshot()["counters"]["engine.actions.Compute"]


def test_subscribe_routes_callbacks_in_order_and_rejects_unknown_events():
    machine = build_machine(shared_mesh(4))
    seen = []
    machine.subscribe(task_started=lambda core, task: seen.append("a"))
    machine.subscribe(task_started=lambda core, task: seen.append("b"),
                      run_finished=lambda: seen.append("end"))
    workload = get_workload("quicksort", scale="tiny", seed=0)
    machine.run(workload.root)
    assert seen[:2] == ["a", "b"] and seen[-1] == "end"
    # One event per start or resume, i.e. per context switch.
    assert seen.count("a") == seen.count("b") == \
        machine.stats.context_switches
    with pytest.raises(AttributeError):
        machine.subscribe(no_such_event=print)
