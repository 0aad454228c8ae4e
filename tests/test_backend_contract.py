"""One execution surface, one meaning per argument.

``build_backend(cfg)`` returns a serial ``Machine`` or a
``ShardedMachine``; both take ``run_workloads(specs, timeout, *,
checkpoint_every, checkpoint_sink, verify_at, verify_states)``.  The
signatures are equal, and so is what each argument means:
``checkpoint_every`` / ``verify_at`` are virtual-time cycles and
``timeout`` is the run's wall-clock budget, under either backend — so no
caller translates units per backend.
"""

import dataclasses
import inspect
import multiprocessing
import time

import pytest

from repro.arch import build_backend, shared_mesh
from repro.core.engine import Machine
from repro.core.errors import SimConfigError, SimTimeout
from repro.parallel import ShardedMachine, WorkloadSpec

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

SERIAL = shared_mesh(16)
SHARDED = dataclasses.replace(SERIAL, backend="sharded", shards=4)
BACKENDS = pytest.mark.parametrize("cfg", [
    SERIAL,
    pytest.param(SHARDED, marks=pytest.mark.skipif(
        not FORK_AVAILABLE, reason="needs fork workers")),
], ids=["serial", "sharded"])

QUICKSORT = [WorkloadSpec("quicksort", scale="tiny", seed=3, root_core=0)]
#: Seconds of simulation on either backend; only a budget ends it early.
ENDLESS = [WorkloadSpec("", root_core=0,
                        factory="repro.verify.fuzz_roots:lone_compute",
                        kwargs={"steps": 2_000_000})]


def test_signatures_are_equal():
    assert (inspect.signature(Machine.run_workloads)
            == inspect.signature(ShardedMachine.run_workloads))


@BACKENDS
@pytest.mark.parametrize("every", [2000.0, 1234.5])
def test_checkpoint_every_is_virtual_time(cfg, every):
    # The tiny quicksort completes near vtime 12 600 in 7 sharded
    # rounds: an interval read as a round count would never fire, and
    # one truncated to an integer would land on other boundaries.
    seen = []
    backend = build_backend(cfg)
    backend.run_workloads(
        QUICKSORT, checkpoint_every=every,
        checkpoint_sink=lambda k, states: seen.append((k, len(states))))
    assert seen, "no boundary crossed with work still live"
    boundaries = [k for k, _ in seen]
    assert boundaries == sorted(set(boundaries))
    for k, n_states in seen:
        assert k / every == round(k / every) >= 1
        assert k < backend.stats.completion_vtime
        assert n_states == max(1, cfg.shards)


@BACKENDS
def test_checkpoint_every_must_be_positive(cfg):
    with pytest.raises(SimConfigError, match="checkpoint_every"):
        build_backend(cfg).run_workloads(
            QUICKSORT, checkpoint_every=0.0,
            checkpoint_sink=lambda k, states: None)


@BACKENDS
def test_timeout_is_the_runs_wall_clock_budget(cfg):
    backend = build_backend(cfg)
    t0 = time.perf_counter()
    with pytest.raises(SimTimeout):
        backend.run_workloads(ENDLESS, timeout=0.05)
    assert time.perf_counter() - t0 < 5.0
    # The sharded backend's workers are gone with the run.
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-shard-")]


@BACKENDS
def test_a_sufficient_budget_changes_nothing(cfg):
    plain, budgeted = build_backend(cfg), build_backend(cfg)
    assert (plain.run_workloads(QUICKSORT)
            == budgeted.run_workloads(QUICKSORT, timeout=120.0))
    assert (plain.stats.completion_vtime
            == budgeted.stats.completion_vtime)
