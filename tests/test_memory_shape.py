"""Memory follows the cores that work and the pairs that talk.

A machine allocates per core only what every core needs (the SoA plane,
one thin ``CoreUnit``); queues, inboxes, mailboxes, annotators, proxy
maps and birth ledgers appear at a core's first push or first task.
Per-pair state lives in the NoC alone, one entry per routed pair; the
routing table keeps none.  ``tests/memory_past_1024.py`` checks the
same at 4096 cores in CI.  A ``Tracer`` holds packed rows, not an
object per recorded event.
"""

import dataclasses
import gc
import random
import tracemalloc

import pytest

from memory_past_1024 import traced_build
from repro.arch import build_machine, dist_mesh, numa_mesh, shared_mesh
from repro.core.coreunit import ABSENT
from repro.harness import trace
from repro.network.noc import Noc
from repro.network.routing import RoutingTable
from repro.network.topology import square_mesh
from repro.workloads import get_workload


def _random_pairs(n_cores, count, seed=0):
    rng = random.Random(seed)
    return [(rng.randrange(n_cores), rng.randrange(n_cores))
            for _ in range(count)]


def test_routing_keeps_no_per_pair_state():
    routing = RoutingTable(square_mesh(1024))
    pairs = _random_pairs(1024, 3000)
    routing.path(0, 1)  # first-use state: the latency range
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for src, dst in pairs:
            routing.path(src, dst)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert routing.trees_built == 0
    # Measured 0 B.  Keeping only the 3000 path tuples would hold over
    # 300 kB; 4 kB leaves room for interpreter noise, not for a cache.
    assert retained < 4096


def test_noc_holds_one_entry_per_routed_pair():
    noc = Noc(square_mesh(64))
    pairs = [(s, d) for s, d in _random_pairs(64, 500) if s != d]
    for i, (src, dst) in enumerate(pairs + pairs[:100]):
        noc.delivery_time(src, dst, 64, float(i))
    asked = pairs[:50]
    for src, dst in asked:
        noc.min_latency(src, dst)
    assert len(noc._route_cache) == len(set(pairs))
    assert len(noc._min_latency_memo) == len(set(asked))
    assert noc.routing.trees_built == 0


@pytest.mark.parametrize("sync", ["spatial", "conservative"])
def test_idle_cores_own_no_containers(sync):
    workload = get_workload("quicksort", scale="tiny")
    machine = build_machine(
        dataclasses.replace(shared_mesh(64), sync=sync))
    received, ran = set(), set()
    machine.subscribe(emitted=lambda msg: received.add(msg.dst),
                      task_started=lambda core, task: ran.add(core.cid))
    result = machine.run(workload.root)
    workload.verify(result["output"])

    def owners(attr):
        return {core.cid for core in machine.cores
                if getattr(core, attr) is not ABSENT}

    assert 0 < len(ran) <= len(received) < machine.n_cores
    assert owners("queue") == ran
    assert {core.cid for core in machine.cores
            if core.annotator is not None} == ran
    assert owners("inbox") == received
    assert owners("user_mailbox") <= received
    assert owners("recv_waiters") <= ran
    # Only arrival-ordered policies keep the inbox heap.
    assert owners("_arrival_heap") == (
        received if sync == "conservative" else set())
    runtime, fabric = machine.runtime, machine.fabric
    assert {c for c, p in enumerate(runtime._proxy) if p is not None} \
        <= received | ran
    assert {c for c, b in enumerate(fabric._births) if b is not None} \
        <= received


def test_build_bytes_per_core_at_1024():
    build_machine(numa_mesh(16))  # one-time allocations of a first build
    _, allocated = traced_build(numa_mesh(1024))
    # Measured 830 B per core with CPython 3.11 (4 142 B while every
    # core owned its containers and annotator); 25 % margin.
    assert allocated / 1024 <= 1040


def test_tracer_bytes_per_recorded_event():
    cfg = dist_mesh(64)
    workload = get_workload("connected_components", scale="small",
                            memory=cfg.memory)
    machine = build_machine(cfg)
    gc.collect()
    tracemalloc.start()
    try:
        tracer = trace.Tracer(machine)
        machine.run(workload.root)
        gc.collect()
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, trace.__file__)])
    finally:
        tracemalloc.stop()
    events = (len(tracer.spans) + len(tracer.messages)
              + len(tracer.stalls))
    assert events > 10000
    # Measured 40.4 B (32 B per span row, 40 B per message row, a few
    # hundred stall dicts); an object per span and message held 140 B.
    assert sum(s.size for s in held.statistics("filename")) / events <= 48
