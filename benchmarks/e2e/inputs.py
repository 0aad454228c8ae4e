"""Seed -> inputs.  The only place ``--seed`` has a meaning.

The program under test receives the op dicts built here (a dwarf name,
a memory model, a scale, a core count and a dataset seed) and nothing
else: never ``--seed`` itself and never a workload name.  ``--seed``
chooses every op's dataset and the order of the ops; the *shape* of each
op list is fixed per workload (see README.md for why each op is there).
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List

from catalog import COLD, SERIAL_64, SERIAL_1024, SHARDED, WARM

#: Memory model -> the arch preset the service API names for it.
PRESET_FOR_MEMORY = {"shared": "shared_mesh", "numa": "numa_mesh",
                     "distributed": "dist_mesh"}

#: One dwarf per memory model (serial_64 / serial_1024).
_SERIAL_OPS = [("octree", "shared"), ("dijkstra", "numa"),
               ("connected_components", "distributed")]
#: Round-bound and event-bound sharded ops.
_SHARDED_OPS = [("quicksort", "shared"), ("connected_components",
                                          "distributed")]
#: Service spec classes; ``_SPECS_PER_CLASS`` dataset seeds each.
_SERVICE_OPS = [("connected_components", "distributed"),
                ("dijkstra", "numa")]
_SPECS_PER_CLASS = 3

#: Rounds of the cross-shard ping/echo pair riding along each sharded op.
CHAT_ROUNDS = 64


#: Deterministic counts of the datasets 0-23, surveyed once (README.md,
#: "What --seed changes").  ``--seed`` draws a dataset from those whose
#: count lies within ``_BAND`` of the table's median, so that every seed
#: measures the same kind of op on other data; where no table applies it
#: draws any dataset.
#:
#: * dijkstra/numa/medium, simulated events on 64 cores.  In graphs 1
#:   and 7 the source is isolated and the op simulates 517 events; the
#:   others range over 2x, and with them the fixed costs per event.
#: * connected_components/distributed/medium, simulated events on 64
#:   cores: a cache hit costs the same whatever it carries, so the events
#:   a service spec holds go straight into the warm workload's events/s.
#: * quicksort/shared/paper on two shards (arrays ``s`` and ``s + 1``),
#:   coordination rounds: the op is round-bound, and pivot luck moves its
#:   events/s by 40 % for the same 230 k events.
_DIJKSTRA_EVENTS = {
    0: 30953, 1: 517, 2: 43933, 3: 31312, 4: 34232, 5: 35927,
    6: 35394, 7: 517, 8: 27109, 9: 34193, 10: 35523, 11: 38928,
    12: 31013, 13: 39287, 14: 36569, 15: 34888, 16: 32320, 17: 39819,
    18: 26356, 19: 36598, 20: 52467, 21: 33671, 22: 38256, 23: 31877,
}
_CC_EVENTS = {
    0: 34793, 1: 38230, 2: 34038, 3: 41074, 4: 40261, 5: 34098,
    6: 32207, 7: 32976, 8: 39199, 9: 41425, 10: 31154, 11: 38957,
    12: 44267, 13: 36614, 14: 30994, 15: 39370, 16: 36183, 17: 32480,
    18: 38257, 19: 29951, 20: 42706, 21: 35238, 22: 38808, 23: 34991,
}
_QUICKSORT_ROUNDS = {
    0: 1065, 1: 1115, 2: 1189, 3: 1140, 4: 1056, 5: 926,
    6: 1011, 7: 1128, 8: 915, 9: 1083, 10: 1079, 11: 977,
    12: 890, 13: 1005, 14: 1079, 15: 1131, 16: 1137, 17: 1361,
    18: 1272, 19: 936, 20: 1120, 21: 1107, 22: 1018, 23: 1021,
}
_BAND = 0.10
_SURVEYED = {
    ("direct", "dijkstra"): _DIJKSTRA_EVENTS,
    ("service", "dijkstra"): _DIJKSTRA_EVENTS,
    ("service", "connected_components"): _CC_EVENTS,
    ("sharded", "quicksort"): _QUICKSORT_ROUNDS,
}


def _dataset_seeds(rng: random.Random, kind: str, benchmark: str,
                   n: int) -> List[int]:
    counts = _SURVEYED.get((kind, benchmark))
    if counts is None:
        return rng.sample(range(1, 10_000), n)
    middle = statistics.median(counts.values())
    return rng.sample([s for s, c in sorted(counts.items())
                       if abs(c - middle) <= _BAND * middle], n)


def make_ops(workload: str, seed: int, quick: bool = False) -> List[Dict]:
    """The op list of one pass of ``workload`` for ``--seed``.

    ``--seed`` draws every op's dataset and the order of the ops.
    serial_64/serial_1024 share datasets for one ``--seed`` (the same
    three ops at two machine sizes), and so do the two service workloads
    (the same spec set, missed and then hit).
    ``listed`` is an op's position in the workload's definition, before
    shuffling.
    """
    rng = random.Random(seed)
    if workload in (SERIAL_64, SERIAL_1024):
        kind, classes, per_class = "direct", _SERIAL_OPS, 1
        scale = "tiny" if quick else "medium"
        shape = {"n_cores": 64 if workload == SERIAL_64 else 1024}
    elif workload == SHARDED:
        kind, classes, per_class = "sharded", _SHARDED_OPS, 1
        scale = "small" if quick else "paper"
        shape = {"n_cores": 64, "shards": 2,
                 "chat_rounds": 4 if quick else CHAT_ROUNDS}
    elif workload in (COLD, WARM):
        kind, classes, per_class = "service", _SERVICE_OPS, _SPECS_PER_CLASS
        scale = "tiny" if quick else "medium"
        shape = {"n_cores": 64}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = [dict(shape, kind=kind, benchmark=b, memory=m, scale=scale, seed=s)
           for b, m in classes
           for s in _dataset_seeds(rng, kind, b, per_class)]
    for i, op in enumerate(ops):
        op["listed"] = i
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def setup_twin(ops: List[Dict]) -> Dict:
    """The tiny-scale twin of the workload's first listed op: what a
    set-up probe runs (the same op class whatever ``--seed`` shuffled)."""
    return scaled(min(ops, key=lambda op: op["listed"]), "tiny")


def scaled(op: Dict, scale: str) -> Dict:
    """``op`` at another dataset scale (warm-up and set-up twins)."""
    twin = dict(op, scale=scale)
    if "chat_rounds" in twin:
        twin["chat_rounds"] = 4
    return twin


def service_spec(op: Dict) -> Dict:
    """The JSON run spec a service op posts to ``/v1/jobs``."""
    return {
        "arch": {"preset": PRESET_FOR_MEMORY[op["memory"]],
                 "n_cores": op["n_cores"]},
        "workload": {"benchmark": op["benchmark"], "scale": op["scale"],
                     "seed": op["seed"]},
        "options": {"wait": True},
    }


def pareto_points(seed: int, n: int = 4096,
                  dims: int = 3) -> List[List[float]]:
    """Seeded objective vectors for the ``dse.pareto_ms`` probe."""
    rng = random.Random(seed)
    return [[rng.random() for _ in range(dims)] for _ in range(n)]


def sweep_spec(seed: int, quick: bool = False) -> Dict:
    """The 12-cell DSE plan (n_cores x drift_bound x seed) of the traced
    service runs."""
    rng = random.Random(seed)
    return {
        "name": "e2e-layer-probe",
        "base": {
            "arch": {"preset": "dist_mesh"},
            "workload": {"benchmark": "connected_components",
                         "scale": "tiny" if quick else "small"},
        },
        "axes": {
            "arch.n_cores": [16, 36, 64],
            "arch.drift_bound": [50.0, 100.0],
            "workload.seed": rng.sample(range(1, 10_000), 2),
        },
        "objectives": ["perf", "power", "area"],
    }
