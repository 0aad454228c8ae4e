"""Tests for the verification subsystem: the runtime sanitizer, the
window-lift protocol guard, and the differential conformance fuzzer.

The injected-bug tests mutate the coordinator's window-lift arithmetic
(the exact class of bug the sanitizer's ``window-lift`` check exists
for) and assert that BOTH detection layers fire: the sanitizer raises
when enabled, and the canonical trace digest diverges when it is not.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import multiprocessing
import random
import time

import pytest

from repro.arch import build_backend, build_machine, shared_mesh
from repro.core.errors import SanitizerViolation
from repro.harness.trace import Tracer, trace_digest
from repro.parallel import WorkloadSpec, channels
from repro.parallel.coordinator import ShardedMachine
from repro.verify.fuzzer import (FuzzCase, generate_case, run_case,
                                 shrink_case)
from repro.workloads import get_workload

from conftest import fanout_root
from fuzz_corpus import KNOWN_DIVERGENCES, case_for

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def sanitized_machine(n_cores=9, **overrides):
    cfg = dataclasses.replace(shared_mesh(n_cores), sanitize=True,
                              **overrides)
    return build_machine(cfg)


# -- sanitizer: clean runs ------------------------------------------------

class TestSanitizerCleanRuns:
    def test_clean_run_passes_and_counts_checks(self):
        machine = sanitized_machine()
        workload = get_workload("quicksort", scale="tiny", seed=0)
        result = machine.run(workload.root)
        workload.verify(result["output"])
        checks = machine.sanitizer.checks
        # The sanitizer must actually have exercised the hot paths, not
        # silently skipped them.
        assert checks["drift-admission"] > 0
        assert checks["causal-delivery"] > 0
        assert checks["publish"] > 0
        assert checks["end-of-run"] == 1

    def test_sanitizer_does_not_perturb_the_simulation(self):
        digests = []
        vtimes = []
        for sanitize in (False, True):
            cfg = dataclasses.replace(shared_mesh(9), sanitize=sanitize)
            machine = build_machine(cfg)
            tracer = Tracer(machine)
            workload = get_workload("quicksort", scale="tiny", seed=0)
            result = machine.run(workload.root)
            digests.append(trace_digest(tracer.export()))
            vtimes.append(result["work_vtime"])
        assert digests[0] == digests[1]
        assert vtimes[0] == vtimes[1]

    def test_builder_skips_sanitizer_by_default(self):
        machine = build_machine(shared_mesh(4))
        assert machine.sanitizer is None

    def test_sanitizer_checks_the_admission_path_that_ships(self):
        """The cached drift floor is armed from the shadow mode alone —
        ``sanitize`` must not switch admission code."""
        assert sanitized_machine(16).fabric._floor_cache_on is True
        assert build_machine(shared_mesh(16)).fabric._floor_cache_on is True
        for sanitize in (False, True):
            exact = build_machine(dataclasses.replace(
                shared_mesh(16), shadow_mode="exact", sanitize=sanitize))
            assert exact.fabric._floor_cache_on is False

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork workers")
    def test_sharded_clean_run_passes_with_sanitizer(self, monkeypatch):
        from repro.verify.sanitizer import Sanitizer

        # Fork workers inherit this patch: at each round start a worker
        # records its drift-admission count so far in shared memory, so
        # the test can see that both shards cross-checked admissions.
        admissions = multiprocessing.get_context("fork").Array("q", 2)
        begin_round = Sanitizer.begin_round

        def recording_begin_round(self, lift):
            shard = 0 if 0 in self.machine._owned else 1
            admissions[shard] = self.checks["drift-admission"]
            begin_round(self, lift)

        monkeypatch.setattr(Sanitizer, "begin_round", recording_begin_round)
        specs = [WorkloadSpec("quicksort", scale="tiny", root_core=0),
                 WorkloadSpec("dijkstra", scale="tiny", root_core=4)]
        runs = {}
        for sanitize in (False, True):
            cfg = dataclasses.replace(
                shared_mesh(8), backend="sharded", shards=2,
                sanitize=sanitize)
            backend = build_backend(cfg)
            results = backend.run_workloads(specs)
            runs[sanitize] = (results, backend.stats.completion_vtime,
                              backend.stats.drift_stalls,
                              backend.stats.actions)
        for spec, result in zip(specs, runs[True][0]):
            get_workload(spec.benchmark, scale="tiny", seed=0).verify(
                result["output"])
        assert all(count > 0 for count in admissions), list(admissions)
        assert runs[True] == runs[False]  # observation-only when sharded


# -- sanitizer: violation checks ------------------------------------------

class TestSanitizerViolations:
    def test_drift_admission_cross_check_fires(self):
        machine = sanitized_machine()
        # Break the reference check while the policy's inlined fast path
        # still admits: the first admission of an active core (core 0,
        # once its root task started) must catch the disagreement.
        machine.fabric.drift_ok = lambda cid: False
        with pytest.raises(SanitizerViolation) as exc_info:
            machine.run(fanout_root(4))
        assert exc_info.value.check == "drift-admission"
        assert exc_info.value.core == 0
        assert "neighbors" in exc_info.value.details["report"]

    def test_waiver_slice_is_exempt_and_next_admission_checked(self):
        # Core 0's neighbour anchored at 0 with T = 1: the lone compute
        # task drift-stalls, so every admission of it violates the rule.
        machine = sanitized_machine(16, drift_bound=1.0)
        machine.set_shard_scope({0}, lambda msg: None)
        machine.begin_run()

        def crunch(ctx):
            for _ in range(200):  # outlives one forced slice
                yield ctx.compute(1.0)

        machine.seed_root(crunch, (), 0)
        machine.set_proxy_time(1, 0.0)
        machine.run_shard_round()
        checks = machine.sanitizer.checks
        admitted = checks["drift-admission"]
        assert not machine.fabric.drift_ok(0)
        stalled_at = machine.fabric.vtime[0]
        # The forced slice runs the violating core, and is not checked.
        assert machine.run_shard_waiver()
        assert machine.fabric.vtime[0] > stalled_at
        assert not machine.fabric.drift_ok(0)
        assert checks["drift-admission"] == admitted
        assert machine.stats.lock_waiver_runs == 1
        # Once the proxy lets core 0 run, normal admissions are checked.
        machine.set_proxy_time(1, 1e6)
        assert machine.run_shard_round()
        assert checks["drift-admission"] > admitted

    def test_inject_rejects_non_finite_times(self):
        from repro.core.messages import MsgKind

        machine = sanitized_machine()
        machine.begin_run()
        with pytest.raises(SanitizerViolation) as exc_info:
            machine.inject_message(MsgKind.USER, 0, 1, 0.0, 16.0,
                                   math.nan)
        assert exc_info.value.check == "inject-time-finite"

    def test_inject_rejects_acausal_arrival(self):
        from repro.core.messages import MsgKind

        machine = sanitized_machine()
        machine.begin_run()
        with pytest.raises(SanitizerViolation) as exc_info:
            # src 0 -> dst 1 has at least one hop of latency; arriving
            # at the send time is impossible.
            machine.inject_message(MsgKind.USER, 0, 1, 100.0, 16.0, 100.0)
        assert exc_info.value.check == "inject-causal"

    def test_inject_rejects_fifo_regression(self):
        from repro.core.messages import MsgKind

        machine = sanitized_machine()
        machine.begin_run()
        machine.inject_message(MsgKind.USER, 0, 1, 0.0, 16.0, 500.0)
        with pytest.raises(SanitizerViolation) as exc_info:
            machine.inject_message(MsgKind.USER, 0, 1, 10.0, 16.0, 400.0)
        assert exc_info.value.check == "inject-fifo"

    def test_lock_leak_detected_at_end_of_run(self):
        machine = sanitized_machine()
        machine.begin_run()
        machine.cores[2].locks_held = 1
        with pytest.raises(SanitizerViolation) as exc_info:
            machine.finish_run()
        assert exc_info.value.check == "lock-leak"
        assert exc_info.value.core == 2

    def test_begin_round_accepts_lift_within_grant(self):
        machine = sanitized_machine()
        T = machine.fabric.T
        assert channels.WINDOW_MAX_FACTOR == 64.0
        machine.sanitizer.begin_round(0.0)
        machine.sanitizer.begin_round(63.0 * T)
        assert machine.sanitizer.lift == 63.0 * T

    @pytest.mark.parametrize("lift_factor, wmax", [
        (1.0, 1.0),     # any positive lift under the lockstep protocol
        (64.0, 64.0),   # one step beyond the (wmax - 1) * T grant
        (-0.5, 4.0),    # negative lift revokes permission
    ])
    def test_begin_round_rejects_excess_lift(self, lift_factor, wmax,
                                             monkeypatch):
        monkeypatch.setattr(channels, "WINDOW_MAX_FACTOR", wmax)
        machine = sanitized_machine()
        T = machine.fabric.T
        with pytest.raises(SanitizerViolation) as exc_info:
            machine.sanitizer.begin_round(lift_factor * T)
        assert exc_info.value.check == "window-lift"


# -- injected window-lift bug: both detection layers ----------------------

def _mutate_window_lift(monkeypatch):
    """The deliberately injected drift-bound bug: the coordinator grants
    ``window * T`` of extra permission instead of ``(window - 1) * T``,
    i.e. a constant surplus T at every window size."""
    monkeypatch.setattr(
        ShardedMachine, "_window_lift",
        lambda self, window: window * self.cfg.drift_bound)


@pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork workers")
class TestInjectedWindowLiftBug:
    def test_sanitizer_catches_the_mutation(self, monkeypatch):
        # The surplus T breaks the grant only once the window sits at its
        # cap, which the shipped protocol reaches late or never on a
        # short run; under lockstep (cap 1) the first round violates.
        _mutate_window_lift(monkeypatch)
        monkeypatch.setattr(channels, "WINDOW_MAX_FACTOR", 1.0)
        monkeypatch.setattr(channels, "ROUND_BATCH", 1)
        cfg = dataclasses.replace(
            shared_mesh(8), backend="sharded", shards=2, sanitize=True,
            drift_bound=5.0)
        backend = build_backend(cfg)
        with pytest.raises(SanitizerViolation) as exc_info:
            backend.run_workloads(
                [WorkloadSpec("quicksort", scale="tiny", root_core=0)])
        assert exc_info.value.check == "window-lift"

    def test_digest_diverges_without_sanitizer(self, monkeypatch):
        # A coupled cross-shard case where the drift bound genuinely
        # gates execution (in horizon-dominated flows the surplus lift
        # is behaviourally invisible, which is exactly why the sanitizer
        # check exists as a second layer).
        from repro.verify.fuzzer import _run

        case = case_for(14)
        assert case.shards >= 2 and case.sync == "spatial"
        clean = _run(case, "sharded", sanitize=False)
        _mutate_window_lift(monkeypatch)
        mutated = _run(case, "sharded", sanitize=False)
        # The surplus permission admits cores the drift rule would have
        # stalled, so the trajectory (and its canonical hash) shifts —
        # deterministically, as the repeat run confirms.
        assert mutated["digest"] != clean["digest"]
        assert _run(case, "sharded", sanitize=False)["digest"] == \
            mutated["digest"]


# -- sanitizer overhead ----------------------------------------------------

def test_sanitizer_overhead_within_2x():
    workload_args = dict(scale="small", seed=0)

    def best_of(sanitize, repeats=3):
        best = math.inf
        for _ in range(repeats):
            cfg = dataclasses.replace(shared_mesh(16), sanitize=sanitize)
            machine = build_machine(cfg)
            workload = get_workload("quicksort", **workload_args)
            t0 = time.perf_counter()
            machine.run(workload.root)
            best = min(best, time.perf_counter() - t0)
        return best

    plain = best_of(False)
    sanitized = best_of(True)
    assert sanitized <= 2.0 * plain + 0.05, (
        f"sanitizer overhead {sanitized / plain:.2f}x exceeds the 2x "
        f"budget ({plain:.3f}s -> {sanitized:.3f}s)")


# -- fuzzer ----------------------------------------------------------------

class TestFuzzer:
    def test_case_json_roundtrip(self):
        case = generate_case(random.Random(5), seed=5)
        clone = FuzzCase.from_json(case.to_json())
        assert clone == case
        assert json.loads(clone.to_json()) == json.loads(case.to_json())

    def test_generation_is_deterministic_in_the_seed(self):
        a = generate_case(random.Random(17), seed=17)
        b = generate_case(random.Random(17), seed=17)
        assert a == b
        assert a != generate_case(random.Random(18), seed=18)

    def test_generated_shard_counts_are_valid(self):
        from repro.network.topology import square_mesh
        from repro.parallel import contiguous_partition

        for seed in range(30):
            case = generate_case(random.Random(seed), seed=seed)
            part = contiguous_partition(square_mesh(case.n_cores),
                                        case.shards)
            assert part.n_shards == case.shards
            for w in case.workloads:
                assert 0 <= w["root_core"] < case.n_cores

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork workers")
    def test_random_cases_conform(self):
        # A fixed list: a red tier-1 means a regression, not a draw.  The
        # wide corpus (seeds 0-1499) runs in CI, tests/fuzz_corpus.py.
        for seed in (3, 14, 97, 1300, 2**31 + 5):
            ok, report = run_case(case_for(seed))
            assert ok, report

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork workers")
    @pytest.mark.parametrize("seed", [1025, 1034, 1287, 1446])
    def test_serial_equals_one_shard_sharded(self, seed):
        # serial == one-shard sharded: a partition without a boundary
        # gets no window horizon, so nothing parks and the shard's ready
        # ring keeps the serial order (results, completion, messages and
        # trace digest are run_case's strict comparison).
        case = case_for(seed)
        assert case.shards == 1
        ok, report = run_case(case)
        assert ok, report
        assert report["mode"] == "strict"

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork workers")
    @pytest.mark.parametrize("seed", [280, 444, 1132, 1310])
    def test_sharded_only_stall_is_the_determinism_tier(self, seed):
        # Serial never stalls on these; a sharded boundary core stalls on
        # a round-stale proxy.  That is cross-shard timing coupling, so
        # guarantee 2 (docs/parallel.md) does not apply.
        ok, report = run_case(case_for(seed))
        assert ok, report
        assert report["mode"] == "determinism"
        assert "deviation" in report  # measured, not only documented

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork workers")
    @pytest.mark.parametrize("seed", [
        pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=why))
        for seed, why in sorted(KNOWN_DIVERGENCES.items())])
    def test_known_strict_divergence(self, seed):
        ok, report = run_case(case_for(seed))
        assert ok, report

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork workers")
    def test_cli_fuzz_smoke(self):
        from repro.cli import main

        out = io.StringIO()
        assert main(["fuzz", "--cases", "3", "--seed", "1"], out=out) == 0
        text = out.getvalue()
        assert "all 3 cases passed" in text

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork workers")
    def test_cli_fuzz_reproducer_roundtrip(self):
        from repro.cli import main

        case = generate_case(random.Random(2), seed=2)
        out = io.StringIO()
        assert main(["fuzz", "--case", case.to_json()], out=out) == 0
        assert "ok" in out.getvalue()

    @pytest.mark.parametrize("text, fragment", [
        # As printed before the window cap and the sub-round batch became
        # constants of the round protocol.
        ('{"drift_bound": 100.0, "n_cores": 9, "round_batch": 16, '
         '"seed": 2, "shards": 1, "sync": "spatial", '
         '"window_max_factor": 64.0, "workloads": []}',
         "unknown field(s) round_batch, window_max_factor"),
        ("{'seed': 2}", "not valid JSON"),
        ("[2]", "JSON object"),
    ])
    def test_cli_fuzz_rejects_a_bad_reproducer(self, text, fragment,
                                               capsys):
        from repro.cli import main

        out = io.StringIO()
        assert main(["fuzz", "--case", text], out=out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert err.count("\n") == 1 and out.getvalue() == ""

    def test_cli_run_sanitize_flag(self):
        from repro.cli import main

        out = io.StringIO()
        code = main(["run", "quicksort", "--cores", "9", "--scale", "tiny",
                     "--sanitize"], out=out)
        assert code == 0
        assert "output verified  : yes" in out.getvalue()


class TestShrinker:
    """``shrink_case`` against a stub oracle: ``repro fuzz`` calls it on
    the first failure of a sweep, which no healthy corpus produces."""

    @staticmethod
    def _case(*names):
        return FuzzCase(seed=1, workloads=[{"name": n} for n in names])

    @staticmethod
    def _stub(verdict):
        """A ``(case, sanitize) -> (ok, report)`` runner from a verdict
        on the set of workload names; records the sets it was asked."""
        calls = []

        def runner(case, sanitize):
            names = frozenset(w["name"] for w in case.workloads)
            calls.append(names)
            report = verdict(names)
            return report is None, report or {}

        return runner, calls

    def test_drops_every_workload_the_failure_does_not_need(self):
        runner, _ = self._stub(lambda names: (
            {"mismatches": ["trace_digest: a != b"]} if "c" in names
            else None))
        shrunk = shrink_case(self._case("a", "b", "c", "d"), runner=runner)
        assert shrunk.workloads == [{"name": "c"}]
        assert shrunk.seed == 1

    def test_refuses_a_candidate_with_another_failure_signature(self):
        # Dropping half of the ping/echo pair still fails, but as an
        # error: simpler, yet a different bug, so the shrink keeps both.
        def verdict(names):
            pair = {"ping", "echo"} & names
            if len(pair) == 1:
                return {"error": "SimDeadlock: recv never matched"}
            if pair:
                return {"mismatches": ["results: differ"]}
            return None

        runner, calls = self._stub(verdict)
        shrunk = shrink_case(self._case("ping", "echo", "noise"),
                             runner=runner)
        assert [w["name"] for w in shrunk.workloads] == ["ping", "echo"]
        # The error-signature candidates were tried, and refused.
        assert frozenset({"echo", "noise"}) in calls
        assert frozenset({"echo"}) in calls

    def test_stops_at_budget(self):
        case = self._case(*"abcdefghij")
        mismatch = {"mismatches": ["completion: differ"]}
        # Every candidate reproduces: three accepted drops, one per round.
        runner, calls = self._stub(lambda names: mismatch)
        shrunk = shrink_case(case, budget=3, runner=runner)
        assert len(calls) == 1 + 3  # the original, then three candidates
        assert len(shrunk.workloads) == 10 - 3
        # Only the last candidate would reproduce: the budget runs out
        # inside the first round, before it is tried.
        runner, calls = self._stub(
            lambda names: mismatch if "j" not in names or len(names) == 10
            else None)
        assert shrink_case(case, budget=3, runner=runner) is case
        assert len(calls) == 1 + 3

    def test_returns_a_passing_case_unchanged(self):
        runner, calls = self._stub(lambda names: None)
        case = self._case("a", "b")
        assert shrink_case(case, runner=runner) is case
        assert len(calls) == 1
