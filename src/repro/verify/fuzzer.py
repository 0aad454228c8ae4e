"""Differential serial-vs-sharded conformance fuzzer.

``python -m repro fuzz`` generates seeded random cases — mesh size,
drift bound, shard count, sync policy, and a random mix of workload
roots — and runs each case under both execution backends with the
sanitizer on, comparing canonical trace digests, merged stats and
workload results.  The sharded leg runs the round protocol that ships
(its window cap and sub-round batch are constants, not case fields).

Two conformance contracts are checked, mirroring docs/parallel.md:

* **strict** — when neither run ever drift-stalls *and* no USER
  message crosses a shard boundary (the run is shard-closed), the
  fenced regions are decoupled and the backends must be
  *bit-identical*: equal results, equal completion time, equal
  per-kind message counts and equal trace digests.
* **determinism** — coupled cases (either run stalls — a sharded
  boundary core can stall on a round-stale proxy where serial never
  does — or messages cross shards and are therefore delivered at round
  granularity) only promise run-to-run determinism of the sharded
  backend plus verified outputs; the sharded run executes twice and
  must hash identically.  The report carries the relative
  serial-vs-sharded completion-time ``deviation`` so the weaker tier
  is measured, not only documented.

On a mismatch the fuzzer greedily shrinks the case (dropping
workloads) while the failure reproduces, then prints a one-line
reproducer::

    python -m repro fuzz --case '<json>'

Case generation is a plain seeded ``random.Random`` walk so a seed is
a complete description: tier-1 pins a fixed seed list
(``tests/test_verify.py``) and CI sweeps seeds 0-1499 against the
committed known-divergence list (``tests/fuzz_corpus.py``).
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_BENCHMARKS = ("quicksort", "dijkstra", "spmxv")
_MESHES = (9, 12, 16, 20, 25)
_DRIFTS = (5.0, 20.0, 100.0, 1e9)
#: Snapshot mode splits a run at this share of its completion time.
_SPLIT_SHARE = (0.2, 0.8)


@dataclass
class FuzzCase:
    """One self-contained fuzz case (JSON round-trippable)."""

    seed: int = 0
    n_cores: int = 16
    shards: int = 2
    drift_bound: float = 100.0
    sync: str = "spatial"
    #: WorkloadSpec keyword dicts (picklable / JSON-able).
    workloads: List[Dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        """Parse a reproducer.  ``ValueError`` says what is wrong with
        one that is not JSON, not an object, or names a field this
        version has no use for."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"case is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("case must be a JSON object")
        known = [f.name for f in dataclasses.fields(cls)]
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"case has unknown field(s) "
                             f"{', '.join(unknown)}; known: "
                             f"{', '.join(known)}")
        return cls(**data)

    def specs(self):
        from ..parallel import WorkloadSpec

        return [WorkloadSpec(**w) for w in self.workloads]

    def config(self, backend: str, sanitize: bool):
        from ..arch import shared_mesh

        return dataclasses.replace(
            shared_mesh(self.n_cores),
            backend=backend,
            shards=self.shards,
            sync=self.sync,
            drift_bound=self.drift_bound,
            sanitize=sanitize,
            collect_trace=True,
            seed=self.seed & 0x7FFFFFFF,
        )

    def describe(self) -> str:
        return (f"seed={self.seed} mesh={self.n_cores} "
                f"shards={self.shards} T={self.drift_bound:g} "
                f"sync={self.sync} workloads={len(self.workloads)}")


def generate_case(rng: random.Random, seed: int = 0) -> FuzzCase:
    """Derive one case from a seeded RNG (deterministic in the seed)."""
    from ..core.errors import SimConfigError
    from ..network.topology import square_mesh
    from ..parallel.partition import contiguous_partition

    n = rng.choice(_MESHES)
    shards = rng.randint(1, min(4, n))
    topo = square_mesh(n)
    while True:
        # Some (mesh, shards) combinations yield disconnected regions
        # (the partitioner validates and refuses); back off toward 1,
        # which always succeeds.
        try:
            part = contiguous_partition(topo, shards)
            break
        except SimConfigError:
            shards -= 1
    case = FuzzCase(
        seed=seed,
        n_cores=n,
        shards=shards,
        drift_bound=rng.choice(_DRIFTS),
        sync="spatial" if rng.random() < 0.8 else "unbounded",
    )
    # Two draws that once picked a window cap and a sub-round batch (now
    # fixed constants of the round protocol), discarded so that every
    # seed still names the case it always has.
    rng.randrange(3)
    rng.randrange(3)
    workloads: List[Dict] = []
    for sid in range(shards):
        owned = list(part.cores_of(sid))
        kind = rng.random()
        if kind < 0.45:
            workloads.append(dict(
                benchmark=rng.choice(_BENCHMARKS), scale="tiny",
                seed=rng.randrange(1000), memory="shared",
                root_core=rng.choice(owned)))
        elif kind < 0.65:
            workloads.append(dict(
                benchmark="", root_core=rng.choice(owned),
                factory="repro.verify.fuzz_roots:lone_compute",
                kwargs={"steps": rng.randrange(2, 8),
                        "chunk": float(rng.choice((15, 40, 90)))}))
        elif kind < 0.8:
            workloads.append(dict(
                benchmark="", root_core=rng.choice(owned),
                factory="repro.verify.fuzz_roots:fanout",
                kwargs={"n_children": rng.randrange(2, 5)}))
        # else: quiet shard (exercises adaptive windows / idle shadows)
    if rng.random() < 0.5 or not workloads:
        # A messaging pair; cores may land in different shards, which
        # exercises the boundary codec and round traffic.
        a, b = rng.sample(range(n), 2)
        rounds = rng.randrange(1, 4)
        workloads.append(dict(
            benchmark="", root_core=a,
            factory="repro.verify.fuzz_roots:pingpong",
            kwargs={"peer": b, "rounds": rounds}))
        workloads.append(dict(
            benchmark="", root_core=b,
            factory="repro.verify.fuzz_roots:echo",
            kwargs={"rounds": rounds}))
    case.workloads = workloads
    return case


# -- execution -------------------------------------------------------------

def _verify_outputs(specs, results) -> Optional[str]:
    for spec, result in zip(specs, results):
        workload = spec.resolve()
        verify = getattr(workload, "verify", None)
        if verify is None:
            continue
        try:
            if spec.factory:
                verify(result)
            else:
                verify(result["output"])
        except AssertionError as exc:
            return (f"workload on core {spec.root_core} produced a wrong "
                    f"result: {exc}")
    return None


def _run(case: FuzzCase, backend: str, sanitize: bool) -> Dict:
    from ..arch import build_backend
    from ..harness.trace import trace_digest

    machine = build_backend(case.config(backend, sanitize))
    results = machine.run_workloads(case.specs())
    trace = machine.trace
    return {
        "results": results,
        "digest": trace_digest(trace),
        "trace": trace,
        "completion": machine.stats.completion_vtime,
        "messages": dict(machine.stats.messages_by_kind),
        "drift_stalls": machine.stats.drift_stalls,
    }


def _shard_closed(case: FuzzCase, trace) -> bool:
    """Whether no USER message in the (serial) trace crosses a shard
    boundary.  Cross-shard messages are delivered at coordination-round
    granularity, so the receiver may legitimately process them at a
    different virtual time than serial — the bit-identity contract only
    covers shard-closed runs (docs/parallel.md)."""
    if case.shards <= 1:
        return True
    from ..arch.builder import build_topology
    from ..parallel.partition import contiguous_partition

    part = contiguous_partition(
        build_topology(case.config("serial", False)), case.shards)
    owner = part.owner
    return not any(m.kind == "user" and owner[m.src] != owner[m.dst]
                   for m in trace.message_events())


def run_case(case: FuzzCase, sanitize: bool = True) -> Tuple[bool, Dict]:
    """Run one case under both backends; return (ok, report).

    The report carries ``mode`` ("strict" or "determinism"), the
    digests, for determinism-tier cases the relative serial-vs-sharded
    completion-time ``deviation``, and on failure a ``mismatches`` list
    naming exactly what diverged (or ``error`` when a run raised).
    """
    report: Dict = {"case": case.to_json()}
    try:
        serial = _run(case, "serial", sanitize)
        sharded = _run(case, "sharded", sanitize)
    except Exception as exc:  # SimDeadlock, SanitizerViolation, ...
        report["error"] = f"{type(exc).__name__}: {exc}"
        return False, report

    specs = case.specs()
    mismatches: List[str] = []
    bad = _verify_outputs(specs, sharded["results"])
    if bad:
        mismatches.append(f"sharded: {bad}")
    bad = _verify_outputs(specs, serial["results"])
    if bad:
        mismatches.append(f"serial: {bad}")

    strict = (serial["drift_stalls"] == 0 and sharded["drift_stalls"] == 0
              and _shard_closed(case, serial["trace"]))
    report["mode"] = "strict" if strict else "determinism"
    if strict:
        second = sharded
    else:
        # Coupled regions: the contract weakens to run-to-run
        # determinism of the sharded backend (plus verified outputs).
        report["deviation"] = (
            abs(sharded["completion"] - serial["completion"])
            / serial["completion"])
        try:
            second = _run(case, "sharded", sanitize)
        except Exception as exc:
            report["error"] = f"{type(exc).__name__}: {exc}"
            return False, report
        serial = sharded  # compare the two sharded runs below

    for key, label in (("results", "results"),
                       ("completion", "completion vtime"),
                       ("messages", "messages by kind"),
                       ("digest", "trace digest")):
        if serial[key] != second[key]:
            mismatches.append(
                f"{label} differ: {serial[key]!r} vs {second[key]!r}")
    report["digest"] = second["digest"]
    if mismatches:
        report["mismatches"] = mismatches
        return False, report
    return True, report


def run_snapshot_case(case: FuzzCase, sanitize: bool = True
                      ) -> Tuple[bool, Dict]:
    """Split-run equivalence for one case (``fuzz --snapshot``).

    Pins ``run(0..end) == run(0..k); restore; run(k..end)`` — results,
    completion vtime, message counts, stats and trace digest all
    bit-identical — at a case-derived random virtual time ``k``, on the
    serial backend and (for a multi-shard case) on the sharded one.  The
    checkpointed run itself must also match the straight run, i.e.
    snapshotting is observation-only.  ``<backend>_boundary`` in the
    report is ``None`` when the run finished before crossing ``k`` with
    work still live (sharded: no round barrier past it).
    """
    from ..checkpoint import run_straight, split_run

    report: Dict = {"case": case.to_json(), "mode": "snapshot"}
    rng = random.Random(case.seed * 9_176_549 + 11)
    mismatches: List[str] = []

    def det(outcome):
        return {k: v for k, v in outcome.items() if k != "host"}

    try:
        specs = case.specs()
        backends = ("serial", "sharded") if case.shards > 1 else ("serial",)
        for backend in backends:
            cfg = case.config(backend, sanitize)
            straight = run_straight(cfg, specs)
            k = max(1.0, straight["completion"] * rng.uniform(*_SPLIT_SHARE))
            snap, chk, resumed = split_run(cfg, specs, k)
            report[f"{backend}_boundary"] = (None if snap is None
                                             else snap.boundary["value"])
            if det(chk) != det(straight):
                mismatches.append(f"{backend} checkpointed run diverged "
                                  "from the straight run")
            if snap is not None and det(resumed) != det(straight):
                mismatches.append(f"{backend} resume from vtime {k:.1f} "
                                  "diverged from the straight run")
            report.setdefault("digest", straight["digest"])
    except Exception as exc:  # CheckpointMismatchError, SimDeadlock, ...
        report["error"] = f"{type(exc).__name__}: {exc}"
        return False, report
    if mismatches:
        report["mismatches"] = mismatches
        return False, report
    return True, report


def _failure_signature(report: Dict) -> Tuple:
    """Coarse failure class, so shrinking cannot morph one bug into
    another (e.g. dropping half a pingpong pair turns a digest mismatch
    into a recv deadlock — simpler, but a different failure)."""
    if "error" in report:
        return ("error", report["error"].split(":", 1)[0])
    return ("mismatch", tuple(sorted(
        m.split(":", 1)[0] for m in report.get("mismatches", ()))))


def shrink_case(case: FuzzCase, sanitize: bool = True,
                budget: int = 16, runner=run_case) -> FuzzCase:
    """Greedy shrink: keep a simplification only while it reproduces the
    *same class* of failure.  ``runner`` is the ``(case, sanitize) ->
    (ok, report)`` oracle — :func:`run_case` for conformance failures,
    :func:`run_snapshot_case` for split-run failures."""
    ok, report = runner(case, sanitize)
    if ok:
        return case
    signature = _failure_signature(report)

    def still_fails(candidate: FuzzCase) -> bool:
        ok, rep = runner(candidate, sanitize)
        return not ok and _failure_signature(rep) == signature

    current = case
    improved = True
    while improved and budget > 0:
        improved = False
        candidates: List[FuzzCase] = []
        for i in range(len(current.workloads)):
            trimmed = [w for j, w in enumerate(current.workloads) if j != i]
            if trimmed:
                candidates.append(
                    dataclasses.replace(current, workloads=trimmed))
        for candidate in candidates:
            if budget <= 0:
                break
            budget -= 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
    return current


# -- CLI entry -------------------------------------------------------------

def fuzz_main(cases: int, seed: int, sanitize: bool,
              case_json: Optional[str], out,
              snapshot: bool = False) -> int:
    """Back end of ``python -m repro fuzz``; returns the exit code."""
    runner = run_snapshot_case if snapshot else run_case
    repro_flag = " --snapshot" if snapshot else ""
    if case_json is not None:
        try:
            case = FuzzCase.from_json(case_json)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ok, report = runner(case, sanitize)
        print(f"case {case.describe()}", file=out)
        _print_report(ok, report, out)
        return 0 if ok else 1

    failures = 0
    deviations: Dict[int, float] = {}  # determinism-tier cases, by seed
    for i in range(cases):
        case_seed = seed * 1_000_003 + i
        case = generate_case(random.Random(case_seed), seed=case_seed)
        ok, report = runner(case, sanitize)
        status = "ok" if ok else "FAIL"
        print(f"[{i + 1:3d}/{cases}] {status:4s} "
              f"({report.get('mode', 'error'):>11s}) {case.describe()}",
              file=out)
        if "deviation" in report:
            deviations[case_seed] = report["deviation"]
        if not ok:
            failures += 1
            _print_report(ok, report, out)
            shrunk = shrink_case(case, sanitize, runner=runner)
            if shrunk.to_json() != case.to_json():
                print(f"  shrunk to: {shrunk.describe()}", file=out)
            print("  reproduce with:", file=out)
            print(f"    python -m repro fuzz{repro_flag} "
                  f"--case '{shrunk.to_json()}'", file=out)
    if deviations:
        worst = max(deviations, key=deviations.get)
        print(f"largest serial-vs-sharded completion deviation over "
              f"{len(deviations)} determinism-tier cases: "
              f"{deviations[worst]:.1%} (seed {worst})", file=out)
    if failures:
        print(f"{failures}/{cases} cases failed", file=out)
        return 1
    print(f"all {cases} cases passed", file=out)
    return 0


def _print_report(ok: bool, report: Dict, out) -> None:
    if ok:
        print(f"  ok ({report.get('mode')}), digest "
              f"{str(report.get('digest'))[:16]}...", file=out)
        return
    if "error" in report:
        print(f"  error: {report['error']}", file=out)
    for line in report.get("mismatches", ()):
        print(f"  mismatch: {line}", file=out)
