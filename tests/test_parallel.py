"""Tests for the sharded execution backend (repro.parallel).

Process-spawning tests use tiny configurations (2 shards, 8-16 cores)
to keep worker start-up cost bounded; the full 4-shard bit-identity
matrix lives in test_golden_numbers.py.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random

import pytest

from repro.arch import ArchConfig, build_backend, build_machine, shared_mesh
from repro.core.errors import SimConfigError, SimError
from repro.core.fabric import INF, VirtualTimeFabric, exact_shadow_fixpoint
from repro.core.messages import Message, MsgKind
from repro.network.topology import Topology, mesh2d, square_mesh
from repro.parallel import (Partition, ShardedMachine, WorkloadSpec,
                            channels, contiguous_partition)
from repro.parallel.channels import (
    SharedRoundBoard,
    decode_batch,
    encode_batch,
    resolve_start_method,
)
from repro.workloads import get_workload


# -- partitioning ---------------------------------------------------------

def test_partition_balanced_contiguous():
    part = contiguous_partition(square_mesh(16), 4)
    assert part.n_shards == 4
    assert part.shards == ((0, 1, 2, 3), (4, 5, 6, 7),
                           (8, 9, 10, 11), (12, 13, 14, 15))
    assert part.owner_of(0) == 0 and part.owner_of(15) == 3
    # Uneven split: sizes differ by at most one.
    part = contiguous_partition(square_mesh(16), 3)
    sizes = sorted(len(s) for s in part.shards)
    assert sum(sizes) == 16 and sizes[-1] - sizes[0] <= 1


def _neighbour_shards(part, sid):
    """Shards owning a proxy of ``sid``: its topological neighbours."""
    return sorted({part.owner_of(cid) for cid in part.proxies_of(sid)})


def test_partition_boundary_structure():
    # 4x4 row-major mesh, 4 shards = 4 rows.
    part = contiguous_partition(square_mesh(16), 4)
    assert part.boundary_of(0) == (0, 1, 2, 3)
    assert part.proxies_of(0) == (4, 5, 6, 7)
    assert part.boundary_of(1) == tuple(range(4, 8))
    assert part.proxies_of(1) == (0, 1, 2, 3, 8, 9, 10, 11)
    assert [_neighbour_shards(part, sid) for sid in range(4)] == [
        [1], [0, 2], [1, 3], [2]]


def test_partition_disconnected_shard_raises():
    # 0-2 and 1-3 are connected, but {0, 1} has no internal edge.
    topo = Topology(4, name="zigzag")
    topo.add_link(0, 2)
    topo.add_link(1, 3)
    topo.add_link(2, 3)
    with pytest.raises(SimConfigError, match="disconnected"):
        contiguous_partition(topo, 2)


def test_partition_shard_count_validation():
    topo = square_mesh(16)
    with pytest.raises(SimConfigError):
        contiguous_partition(topo, 0)
    with pytest.raises(SimConfigError):
        contiguous_partition(topo, 17)


def test_partition_non_divisible_mesh():
    # 5x5 mesh into 4 shards: 25 = 7+6+6+6.  Partial-row bands stay
    # connected on the row-major mesh, the extra core goes to shard 0,
    # and the whole id range is covered exactly once.
    part = contiguous_partition(mesh2d(5, 5), 4)
    sizes = [len(s) for s in part.shards]
    assert sizes == [7, 6, 6, 6]
    assert sorted(c for s in part.shards for c in s) == list(range(25))
    # Boundary structure is symmetric: every proxy of ``sid`` is a
    # boundary core of the shard owning it, and that shard holds a proxy
    # owned by ``sid`` in turn.
    for sid in range(part.n_shards):
        for cid in part.proxies_of(sid):
            owner = part.owner_of(cid)
            assert cid in part.boundary_of(owner)
            assert sid in _neighbour_shards(part, owner)


def test_partition_strip_mesh():
    # A 1xN strip is a path graph: any contiguous split is connected and
    # the shard adjacency degenerates to a chain.
    part = contiguous_partition(mesh2d(1, 8), 3)
    assert [len(s) for s in part.shards] == [3, 3, 2]
    assert [_neighbour_shards(part, sid) for sid in range(3)] == [
        [1], [0, 2], [1]]
    assert part.boundary_of(1) == (3, 5)
    assert part.proxies_of(1) == (2, 6)
    # N shards over an N-core strip: one core each, still valid.
    part = contiguous_partition(mesh2d(1, 4), 4)
    assert part.shards == ((0,), (1,), (2,), (3,))
    assert part.proxies_of(1) == (0, 2)
    assert _neighbour_shards(part, 1) == [0, 2]


def test_partition_shards_exceed_cores():
    # Oversubscription is rejected at both entry points: the raw
    # partition helper and the config layer.
    with pytest.raises(SimConfigError):
        contiguous_partition(mesh2d(1, 4), 5)
    with pytest.raises(SimConfigError):
        ArchConfig(n_cores=4, shards=5)


def test_remap_home_stays_in_creator_shard():
    part = contiguous_partition(square_mesh(16), 4)
    for creator in (0, 5, 10, 15):
        shard = part.owner_of(creator)
        for home in range(40):
            assert part.owner_of(part.remap_home(home, creator)) == shard
    # Spread survives: different homes map to different in-shard cores.
    assert len({part.remap_home(h, 0) for h in range(4)}) == 4


# -- config / builder wiring ---------------------------------------------

def test_config_validates_backend_and_shards():
    with pytest.raises(SimConfigError):
        ArchConfig(backend="threads")
    with pytest.raises(SimConfigError):
        ArchConfig(n_cores=8, shards=9)
    with pytest.raises(SimConfigError):
        ArchConfig(backend="sharded", shards=0)


def test_resolve_start_method():
    # Derived from the host: fork wherever the platform offers it.
    offered = multiprocessing.get_all_start_methods()
    assert resolve_start_method() in offered
    if "fork" in offered:
        assert resolve_start_method() == "fork"
    with pytest.raises(TypeError):
        ArchConfig(worker_start_method="spawn")  # no longer configurable


def test_builder_attaches_fence():
    cfg = dataclasses.replace(shared_mesh(16), shards=4)
    machine = build_machine(cfg)
    assert isinstance(machine.fence, Partition)
    assert machine.fence.n_shards == 4
    assert build_machine(shared_mesh(16)).fence is None


def test_sharded_machine_rejects_global_referee_policies():
    for sync in ("conservative", "quantum", "bounded_slack", "laxp2p"):
        cfg = dataclasses.replace(shared_mesh(16), shards=2,
                                  backend="sharded", sync=sync)
        with pytest.raises(SimConfigError, match="sync"):
            ShardedMachine(cfg)
    cfg = dataclasses.replace(shared_mesh(16), shards=2, backend="sharded",
                              shadow_mode="exact")
    with pytest.raises(SimConfigError, match="shadow_mode"):
        ShardedMachine(cfg)


# -- fence semantics (serial backend, in-process) -------------------------

def _run_scoped(cfg, roots, owned):
    """Serial run with a shard scope installed; returns captured
    foreign messages."""
    machine = build_machine(cfg)
    captured = []
    machine.set_shard_scope(owned, captured.append)
    machine.run_roots(roots)
    return machine, captured


def test_fenced_run_is_shard_closed():
    # A fenced workload rooted in shard 0 must never emit a message
    # that leaves shard 0 — the foreign sink stays untouched.
    cfg = dataclasses.replace(shared_mesh(16), shards=4)
    workload = get_workload("quicksort", scale="tiny", seed=0,
                            memory="shared")
    machine, captured = _run_scoped(
        cfg, [(workload.root, (), 0)], owned=range(4))
    assert captured == []
    assert machine.stats.tasks_started > 1  # parallelism stayed in-shard


def test_foreign_sink_receives_cross_shard_user_messages():
    cfg = dataclasses.replace(shared_mesh(16), shards=4)

    def chatter(ctx):
        yield ctx.send(9, payload="hi", tag="x")  # shard 2
        return "sent"

    machine, captured = _run_scoped(cfg, [(chatter, (), 0)], owned=range(4))
    assert [(m.kind, m.dst, m.payload) for m in captured] == [
        (MsgKind.USER, 9, "hi")]
    assert machine.stats.messages_by_kind[MsgKind.USER] == 1  # sender counts


def test_fenced_distributed_cells_stay_in_shard():
    from repro.workloads.base import DistSpace

    cfg = dataclasses.replace(shared_mesh(16), memory="distributed",
                              shards=4)
    machine = build_machine(dataclasses.replace(cfg))
    owners = []

    def creator(ctx):
        space = DistSpace()
        for i in range(8):
            handle = space.new(ctx, i, data=i, home=i)  # raw homes 0..7
            owners.append(handle.owner)
        yield ctx.compute(1.0)
        return None

    machine.run_roots([(creator, (), 5)])  # core 5 lives in shard 1
    fence = machine.fence
    assert owners and all(fence.owner_of(o) == 1 for o in owners)


# -- fabric proxy anchoring ----------------------------------------------

def test_set_proxy_time_anchors_and_is_monotone():
    fabric = VirtualTimeFabric(square_mesh(16), drift_bound=10.0)
    fabric.set_proxy_time(5, 100.0)
    assert fabric.active[5] and fabric.published[5] == 100.0
    fabric.set_proxy_time(5, 50.0)  # stale update: ignored
    assert fabric.published[5] == 100.0
    fabric.set_proxy_time(5, 150.0)
    assert fabric.published[5] == 150.0 and fabric.vtime[5] == 150.0


def test_adopt_shadow_skips_active_cores():
    fabric = VirtualTimeFabric(square_mesh(16), drift_bound=10.0)
    fabric.set_active(3, 42.0)
    fabric.adopt_shadow(3, 500.0)
    assert fabric.published[3] == 42.0
    fabric.adopt_shadow(7, 60.0)
    assert fabric.published[7] == 60.0 and not fabric.active[7]
    fabric.adopt_shadow(7, 30.0)  # raise-only: stale value ignored
    assert fabric.published[7] == 60.0


def test_run_shard_waiver_runs_despite_drift():
    # Anchor core 0's neighbour at virtual time 0 with a tiny drift
    # bound: the lone compute task on core 0 stalls almost immediately,
    # a plain round cannot move it, and the waiver forces it anyway.
    cfg = dataclasses.replace(shared_mesh(16), sync="spatial",
                              drift_bound=1.0)
    machine = build_machine(cfg)
    machine.set_shard_scope({0}, lambda msg: None)
    machine.begin_run()

    def crunch(ctx):
        for _ in range(50):
            yield ctx.compute(1.0)
        return "done"

    machine.seed_root(crunch, (), 0)
    machine.fabric.set_proxy_time(1, 0.0)
    machine.run_shard_round()
    stalled_at = machine.fabric.vtime[0]
    assert machine.stats.drift_stalls > 0
    assert not machine.run_shard_round()  # wedged without the waiver
    assert machine.run_shard_waiver()
    assert machine.fabric.vtime[0] > stalled_at
    assert machine.stats.lock_waiver_runs == 1


def test_exact_fixpoint_matches_fabric_recompute():
    topo = square_mesh(16)
    fabric = VirtualTimeFabric(topo, drift_bound=7.0, shadow_mode="exact")
    for cid, t in ((0, 12.0), (5, 30.0), (15, 4.0)):
        fabric.set_active(cid, t)
    fabric.refresh_shadows()
    standalone = exact_shadow_fixpoint(
        [topo.neighbors(c) for c in range(16)],
        fabric.active, fabric.vtime, 7.0)
    assert standalone == list(fabric.published)


# -- shared round board / batch codec -------------------------------------

def test_shared_round_board_create_attach_roundtrip():
    board = SharedRoundBoard.create(8, 2)
    try:
        assert board.published.shape == (2, 8)
        assert all(v == INF for v in board.published[0])
        assert all(v == INF for v in board.adopt)
        board.published[1][3] = 42.5
        board.vtime[2] = 7.25
        board.active[2] = 1
        board.counts[0, 1, 0] = 9
        peer = SharedRoundBoard.attach(board.name, 8, 2)
        try:
            assert peer.published[1][3] == 42.5
            assert peer.vtime[2] == 7.25 and peer.active[2] == 1
            assert peer.counts[0, 1, 0] == 9
            peer.adopt[5] = 13.0  # writes propagate both ways
            assert board.adopt[5] == 13.0
        finally:
            peer.close()
    finally:
        board.close()
        board.unlink()


def test_batch_codec_roundtrip_is_bit_exact():
    msgs = [
        Message(MsgKind.USER, 3, 4 + i, 10.1 + i * 0.3, 64.0,
                payload=("p", i), tag="t", arrival=10.5 + i)
        for i in range(5)
    ]
    # Delta encoding must survive non-monotone ids and extreme floats.
    msgs.append(Message(MsgKind.USER, 7, 0, 1e300, 8.0,
                        payload=None, tag=None, arrival=1e300 + 1e284))
    fields = decode_batch(encode_batch(msgs))
    assert len(fields) == len(msgs)
    for m, (kind, src, dst, st, sz, arr, pl, tg) in zip(msgs, fields):
        assert kind is MsgKind.USER
        assert (src, dst) == (m.src, m.dst)
        assert (st, sz, arr) == (m.send_time, m.size, m.arrival)
        assert (pl, tg) == (m.payload, m.tag)


# -- sharded backend end to end ------------------------------------------

def _sharded_cfg(**over):
    cfg = dataclasses.replace(shared_mesh(16), shards=2, backend="sharded")
    return dataclasses.replace(cfg, **over)


def test_sharded_matches_serial_end_to_end():
    cfg = _sharded_cfg(sync="unbounded")
    spec = WorkloadSpec("quicksort", scale="tiny", seed=0, memory="shared",
                        root_core=0)
    serial = build_machine(dataclasses.replace(cfg, backend="serial"))
    workload = get_workload("quicksort", scale="tiny", seed=0,
                            memory="shared")
    serial_result = serial.run(workload.root)

    backend = build_backend(cfg)
    (sharded_result,) = backend.run_workloads([spec])
    workload.verify(sharded_result["output"])
    assert sharded_result == serial_result
    assert backend.stats.completion_vtime == serial.stats.completion_vtime
    assert backend.stats.messages_by_kind == serial.stats.messages_by_kind


def test_sharded_cross_shard_pingpong():
    backend = build_backend(_sharded_cfg())
    specs = [
        WorkloadSpec("", root_core=0, factory="parallel_roots:pingpong",
                     kwargs={"peer": 12, "rounds": 3}),
        WorkloadSpec("", root_core=12, factory="parallel_roots:echo",
                     kwargs={"rounds": 3}),
    ]
    results = backend.run_workloads(specs)
    assert results == [[1, 11, 21], "echoed"]
    assert backend.stats.messages_by_kind[MsgKind.USER] == 6


def test_sharded_runs_are_deterministic():
    def once():
        backend = build_backend(_sharded_cfg())
        specs = [
            WorkloadSpec("dijkstra", scale="tiny", seed=2, memory="shared",
                         root_core=0),
            WorkloadSpec("", root_core=12,
                         factory="parallel_roots:lone_compute",
                         kwargs={"steps": 4}),
        ]
        results = backend.run_workloads(specs)
        return results, backend.stats.completion_vtime, \
            dict(backend.stats.messages_by_kind)

    assert once() == once()


def test_sharded_machine_is_single_use():
    backend = build_backend(_sharded_cfg())
    spec = WorkloadSpec("spmxv", scale="tiny", root_core=0)
    backend.run_workloads([spec])
    with pytest.raises(SimError, match="single-use"):
        backend.run_workloads([spec])


def test_sharded_rejects_out_of_range_root():
    backend = build_backend(_sharded_cfg())
    with pytest.raises(SimConfigError, match="root core"):
        backend.run_workloads([WorkloadSpec("spmxv", root_core=99)])


def test_workload_spec_factory_resolution():
    spec = WorkloadSpec("", factory="parallel_roots:lone_compute",
                        kwargs={"steps": 2})
    assert callable(spec.resolve().root)
    spec = WorkloadSpec("spmxv", scale="tiny")
    assert callable(spec.resolve().root)


def test_single_shard_degenerates_to_serial():
    # shards=1: no peers, no boundary, and the run must match the serial
    # backend exactly while the protocol collapses to a handful of
    # rounds with zero boundary bytes.
    cfg = dataclasses.replace(shared_mesh(16), shards=1, backend="sharded",
                              sync="spatial", drift_bound=1e9)
    serial = build_machine(dataclasses.replace(cfg, backend="serial"))
    workload = get_workload("quicksort", scale="tiny", seed=3,
                            memory="shared")
    serial_result = serial.run(workload.root)

    backend = build_backend(cfg)
    (result,) = backend.run_workloads([
        WorkloadSpec("quicksort", scale="tiny", seed=3, memory="shared",
                     root_core=0)])
    assert result == serial_result
    assert backend.stats.completion_vtime == serial.stats.completion_vtime
    assert backend.stats.messages_by_kind == serial.stats.messages_by_kind
    assert backend.protocol["bytes_by_edge"] == {}
    assert backend.protocol["bytes_shipped"] == 0
    assert backend.protocol["rounds"] <= 5


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the lockstep leg's patch must reach the workers")
def test_adaptive_window_widens_on_quiet_mesh(monkeypatch):
    # A quiet mesh (no cross-shard messages) under a tight drift bound:
    # the window must widen past 1x, ship zero boundary bytes, and
    # finish in far fewer rounds than the lockstep protocol (window cap
    # 1, one sub-round per round; fork workers inherit the patch) while
    # computing the same outputs.  Timings may legitimately differ here — the window lift
    # relaxes drift stalls, which is the whole point; exact bit-identity
    # is only claimed for decoupled runs (see the sweep below and
    # test_golden_numbers.py).
    cfg = _sharded_cfg(sync="spatial", drift_bound=10.0)
    specs = [
        WorkloadSpec("quicksort", scale="tiny", seed=0, root_core=0),
        WorkloadSpec("", root_core=12, factory="parallel_roots:lone_compute",
                     kwargs={"steps": 40}),
    ]
    adaptive = build_backend(cfg)
    adaptive_results = adaptive.run_workloads(specs)
    assert adaptive.protocol["window_peak"] > 1.0
    assert adaptive.protocol["bytes_shipped"] == 0

    monkeypatch.setattr(channels, "WINDOW_MAX_FACTOR", 1.0)
    monkeypatch.setattr(channels, "ROUND_BATCH", 1)
    lockstep = build_backend(cfg)
    lockstep_results = lockstep.run_workloads(specs)
    assert lockstep.protocol["window_peak"] == 1.0
    assert (lockstep_results[0]["output"]
            == adaptive_results[0]["output"])
    assert lockstep_results[1] == adaptive_results[1]
    assert adaptive.protocol["rounds"] < lockstep.protocol["rounds"]
    workload = get_workload("quicksort", scale="tiny", seed=0,
                            memory="shared")
    workload.verify(adaptive_results[0]["output"])


def test_sharded_bytes_shipped_counts_cross_shard_traffic():
    """Cross-shard USER traffic must surface in protocol byte counters
    (the sharded bench entry reports these; they read zero for fenced
    loads, which hid a wiring question — pin the working path)."""
    cfg = dataclasses.replace(shared_mesh(16), shards=2, backend="sharded")
    backend = build_backend(cfg)
    results = backend.run_workloads([
        WorkloadSpec("", root_core=0, factory="parallel_roots:pingpong",
                     kwargs={"peer": 12, "rounds": 3}),
        WorkloadSpec("", root_core=12, factory="parallel_roots:echo",
                     kwargs={"rounds": 3}),
    ])
    assert results == [[1, 11, 21], "echoed"]
    proto = backend.protocol
    assert proto["bytes_shipped"] > 0
    assert set(proto["bytes_by_edge"]) == {"0->1", "1->0"}
    assert all(v > 0 for v in proto["bytes_by_edge"].values())
    assert proto["bytes_shipped"] == sum(proto["bytes_by_edge"].values())


def test_worker_start_methods_agree(monkeypatch):
    # fork and spawn workers must produce identical runs; skip methods
    # the host does not offer (e.g. no fork on Windows).  The method is
    # derived from the host, so the spawn leg patches the derivation.
    import repro.parallel.coordinator as coordinator

    spec = WorkloadSpec("quicksort", scale="tiny", seed=1, root_core=0)
    outcomes = []
    for method in ("fork", "spawn"):
        if method not in multiprocessing.get_all_start_methods():
            continue
        monkeypatch.setattr(coordinator, "resolve_start_method",
                            lambda method=method: method)
        backend = build_backend(_sharded_cfg(
            sync="spatial", drift_bound=1e9))
        assert f"start={method}" in backend.describe()
        (result,) = backend.run_workloads([spec])
        outcomes.append((result, backend.stats.completion_vtime,
                         dict(backend.stats.messages_by_kind)))
    assert outcomes and all(o == outcomes[0] for o in outcomes)


# -- randomized serial vs sharded bit-identity sweep ----------------------
#
# Decoupled fenced configurations (drift bound far above the makespan)
# must be *bit-identical* between the serial and sharded backends — the
# golden matrix pins two such configurations; this sweep samples many
# more topologies, seeds and drift bounds, always through the shipped
# adaptive-window + sub-round-batching protocol.  Small drift bounds
# exercise the stall/rescue/waiver ladder, where the contract weakens to
# run-to-run determinism plus verified outputs.

_SWEEP_BENCHMARKS = ("quicksort", "dijkstra", "spmxv")


def _region_specs(rng, part):
    """One random benchmark root per shard, on a random owned core."""
    return [
        WorkloadSpec(rng.choice(_SWEEP_BENCHMARKS), scale="tiny",
                     seed=rng.randrange(1000), memory="shared",
                     root_core=rng.choice(part.cores_of(sid)))
        for sid in range(part.n_shards)
    ]


def test_randomized_decoupled_sweep_is_bit_identical():
    rng = random.Random(0xC0FFEE)
    for _ in range(3):
        n = rng.choice((16, 25))
        shards = rng.choice((2, 3))
        cfg = dataclasses.replace(
            shared_mesh(n), shards=shards, backend="sharded",
            sync="spatial", drift_bound=rng.choice((1e7, 1e8, 1e9)))
        specs = _region_specs(rng, contiguous_partition(square_mesh(n),
                                                        shards))
        serial = build_machine(dataclasses.replace(cfg, backend="serial"))
        serial_results = serial.run_roots(
            [(s.resolve().root, (), s.root_core) for s in specs])
        # Premise for exact identity: at these drift bounds the fenced
        # regions are fully decoupled (the serial run never stalls).
        assert serial.stats.drift_stalls == 0

        backend = build_backend(cfg)
        results = backend.run_workloads(specs)
        assert results == serial_results
        assert backend.stats.completion_vtime == serial.stats.completion_vtime
        assert (dict(backend.stats.messages_by_kind)
                == dict(serial.stats.messages_by_kind))
        for spec, result in zip(specs, results):
            spec.resolve().verify(result["output"])


def test_randomized_small_drift_sweep_is_deterministic():
    rng = random.Random(31337)
    for _ in range(2):
        seed = rng.randrange(1000)
        cfg = _sharded_cfg(
            sync="spatial", drift_bound=rng.choice((5.0, 25.0, 100.0)))
        specs = [
            WorkloadSpec("quicksort", scale="tiny", seed=seed, root_core=0),
            WorkloadSpec("", root_core=12,
                         factory="parallel_roots:lone_compute",
                         kwargs={"steps": rng.randrange(2, 6)}),
        ]

        def once():
            backend = build_backend(dataclasses.replace(cfg))
            results = backend.run_workloads(specs)
            return (results, backend.stats.completion_vtime,
                    dict(backend.stats.messages_by_kind))

        first, second = once(), once()
        assert first == second
        get_workload("quicksort", scale="tiny", seed=seed,
                     memory="shared").verify(first[0][0]["output"])
