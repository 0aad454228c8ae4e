"""Unit tests for synchronization policies and the min tracker."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import build_machine, shared_mesh
from repro.core.sync import (
    ActiveMinTracker,
    BoundedSlackSync,
    ConservativeSync,
    GlobalQuantumSync,
    LaxP2PSync,
    POLICIES,
    SpatialSync,
    UnboundedSync,
    make_policy,
)

from conftest import fanout_root


class TestActiveMinTracker:
    def test_empty_is_inf(self):
        assert math.isinf(ActiveMinTracker(4).min())

    def test_single_entry(self):
        tracker = ActiveMinTracker(4)
        tracker.update(0, 10.0)
        assert tracker.min() == 10.0

    def test_min_of_many(self):
        tracker = ActiveMinTracker(4)
        tracker.update(0, 10.0)
        tracker.update(1, 5.0)
        tracker.update(2, 20.0)
        assert tracker.min() == 5.0

    def test_update_supersedes(self):
        tracker = ActiveMinTracker(4)
        tracker.update(0, 5.0)
        tracker.update(0, 50.0)
        assert tracker.min() == 50.0

    def test_remove(self):
        tracker = ActiveMinTracker(4)
        tracker.update(0, 5.0)
        tracker.update(1, 9.0)
        tracker.remove(0)
        assert tracker.min() == 9.0

    def test_remove_all(self):
        tracker = ActiveMinTracker(2)
        tracker.update(0, 5.0)
        tracker.remove(0)
        assert math.isinf(tracker.min())

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["update", "remove"]),
                st.integers(0, 4),
                st.floats(min_value=0, max_value=1000),
            ),
            min_size=1, max_size=100,
        )
    )
    @settings(max_examples=50)
    def test_matches_naive_min(self, ops):
        tracker = ActiveMinTracker(5)
        naive = {}
        for op, cid, value in ops:
            if op == "update":
                tracker.update(cid, value)
                naive[cid] = value
            else:
                tracker.remove(cid)
                naive.pop(cid, None)
            expected = min(naive.values()) if naive else math.inf
            assert tracker.min() == expected


class TestPolicyFactory:
    def test_known_policies(self):
        for name, cls in [
            ("spatial", SpatialSync),
            ("conservative", ConservativeSync),
            ("quantum", GlobalQuantumSync),
            ("bounded_slack", BoundedSlackSync),
            ("laxp2p", LaxP2PSync),
            ("unbounded", UnboundedSync),
        ]:
            assert isinstance(make_policy(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("nonsense")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GlobalQuantumSync(quantum=0)
        with pytest.raises(ValueError):
            BoundedSlackSync(slack=-1)
        with pytest.raises(ValueError):
            LaxP2PSync(slack=0)


class TestSpatialPolicyOnMachine:
    def _machine(self, n=4, T=100.0):
        cfg = shared_mesh(n)
        cfg = cfg.with_drift(T)
        machine = build_machine(cfg)
        machine.policy.attach(machine)
        return machine

    def test_inactive_core_may_run(self):
        machine = self._machine()
        assert machine.policy.may_run(machine.cores[0])

    def test_stall_and_waiver(self):
        machine = self._machine(n=2, T=50.0)
        fabric = machine.fabric
        fabric.set_active(0, 0.0)
        fabric.set_active(1, 0.0)
        fabric.advance(0, 100.0)
        core0 = machine.cores[0]
        assert not machine.policy.may_run(core0)
        core0.locks_held = 1
        assert machine.policy.may_run(core0)
        assert machine.stats.lock_waiver_runs == 1

    def test_reception_exempt_flags(self):
        policies = {name: make_policy(name) for name in POLICIES}
        # Only spatial sync needs reception exemption: it is the only
        # policy whose drift floor depends on another core processing a
        # message (the spawn-birth ledger).
        assert {n for n, p in policies.items() if p.reception_exempt} == {
            "spatial"}
        # The engine's ordered slice (earliest unit first, arrival-ordered
        # inbox) serves the conservative referee alone, and calls
        # may_run_unit, which the base policies do not define.
        ordered = {n for n, p in policies.items() if p.ordered_units}
        assert ordered == {"conservative"}
        for name in ordered:
            assert callable(getattr(policies[name], "may_run_unit", None))


class TestQuantumPolicy:
    def test_epoch_advance(self):
        machine = build_machine(shared_mesh(2))
        policy = GlobalQuantumSync(quantum=10.0)
        policy.attach(machine)
        machine.fabric.set_active(0, 0.0)
        machine.cores[0].current = object()  # busy core: vtime is its event
        policy.on_activation(machine.cores[0])
        machine.fabric.advance(0, 15.0)
        policy.on_advance(machine.cores[0])
        assert not policy.may_run(machine.cores[0])  # beyond epoch+quantum
        assert policy.on_no_runnable()  # epoch jumps to 15
        assert policy.may_run(machine.cores[0])

    def test_no_advance_possible(self):
        machine = build_machine(shared_mesh(2))
        policy = GlobalQuantumSync(quantum=10.0)
        policy.attach(machine)
        assert not policy.on_no_runnable()  # nothing active


class TestBoundedSlack:
    def test_slack_enforced(self):
        machine = build_machine(shared_mesh(2))
        policy = BoundedSlackSync(slack=10.0)
        policy.attach(machine)
        fabric = machine.fabric
        fabric.set_active(0, 0.0)
        fabric.set_active(1, 0.0)
        machine.cores[0].current = object()  # busy cores
        machine.cores[1].current = object()
        policy.on_activation(machine.cores[0])
        policy.on_activation(machine.cores[1])
        fabric.advance(0, 15.0)
        policy.on_advance(machine.cores[0])
        assert not policy.may_run(machine.cores[0])  # 15 > 0 + 10
        assert policy.may_run(machine.cores[1])


class TestConservative:
    def test_parallelism_sampling_asks_may_run(self):
        # The ordered slice gates units through may_run_unit; the
        # parallelism probe still asks every busy core's may_run.
        cfg = dataclasses.replace(shared_mesh(4), sync="conservative",
                                  parallelism_sample_interval=1)
        machine = build_machine(cfg)
        machine.run(fanout_root(8, child_cycles=100.0))
        samples = machine.stats.parallelism_samples
        assert samples and 1 <= max(samples) <= 4


class TestUnbounded:
    def test_always_runs(self):
        machine = build_machine(shared_mesh(2))
        policy = UnboundedSync()
        policy.attach(machine)
        machine.fabric.set_active(0, 0.0)
        machine.fabric.advance(0, 1e9)
        assert policy.may_run(machine.cores[0])
