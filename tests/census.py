"""Function-level call census of ``src/repro/``: which functions does any
entry point ever call?

Not collected by tier-1 (the name is not ``test_*``); run it as a
script (about 15 minutes on 2 vCPUs, ~25 with ``--tier1``)::

    python tests/census.py [--tier1] [--values] [--json PATH]

It copies the working tree to a temporary directory (the figure suite
rewrites ``benchmarks/results/*.txt``, the e2e harness writes
``benchmarks/e2e/out/``; neither touches the checkout) and drops a
``sitecustomize.py`` into the copy's ``src/``.  Every Python process
that puts that ``src/`` on its path -- including children that set
``PYTHONPATH=src`` themselves, such as the example scripts
``tests/test_docs.py`` launches and the ``repro serve`` child of the
e2e service workloads -- then records a ``sys.settrace`` *call* event
for every function it runs and dumps the code objects under
``src/repro/`` when it exits.  The entry-point set (:func:`entry_points`)
is:

* the figure suite, ``benchmarks/test_*.py``;
* ``tests/test_docs.py`` and the example scripts, run directly;
* ``benchmarks/e2e/run.py --quick``, and again with ``--trace 1`` (the
  traced pass that attributes time to layers);
* every CI smoke: the telemetry sharded run and ``obs summarize``,
  ``tests/memory_past_1024.py``, the cold-start import,
  ``tests/fuzz_corpus.py``, ``fuzz --snapshot``, checkpoint and resume on
  both backends, ``repro serve`` with submissions and resubmissions on
  both backends, and the serial and sharded sweeps run twice.

``--tier1`` adds a second set, the tier-1 suite (``pytest tests``).
The report lists, per file, every function the entry points never call,
with its line count (the ``def`` line through the last body line) and,
under ``--tier1``, whether the tier-1 suite reaches it.

``--values`` adds a value census beside the call census: the hook
wraps ``ArchConfig.__post_init__`` (which ``dataclasses.replace`` runs
too) as ``repro.arch.config`` loads, and records every field whose value
differs from its default, per entry point.  A field that no entry point
sets reads "default only": every caller takes the default, whichever
branch the field selects -- which the call census cannot show, since a
function is "called" whatever value its flag has.

Four things make such a census under-report reach, and each is handled
here:

* pytest-benchmark turns tracing off while it times; the figure suite
  runs with ``--benchmark-disable`` and the hook re-arms
  ``sys.settrace`` in ``pytest_runtest_call`` (pytest loads the copy's
  ``sitecustomize`` as a plugin with ``-p sitecustomize``);
* ``PYTHONPATH=src`` makes ``co_filename`` relative, so files are
  matched on ``src/repro/``, not ``/src/repro/``;
* forked children (multiprocessing pools, shard workers) leave through
  ``os._exit``, which skips ``atexit``: the hook wraps it.  A SIGTERM
  (pool termination, the service's stop) dumps before the process dies
  by the signal as it would have;
* dumps are atomic (a temporary file, then ``os.replace``) and a SIGTERM
  that lands during a dump is ignored, so a terminated pool leaves whole
  JSON files.  A process killed by SIGKILL leaves nothing.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import dataclasses
import glob
import importlib.machinery
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
import uuid
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

REPO = os.path.normpath(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), os.pardir))
MARK = "src/repro/"

#: The example scripts' small-machine settings (as in tests/test_docs.py).
EXAMPLE_ENV = {"REPRO_EXAMPLE_CORES": "16", "REPRO_EXAMPLE_SCALE": "tiny"}

# -- the in-process hook ---------------------------------------------------
#
# Loaded by the copy's sitecustomize.py in every Python process; records
# the code object of every frame and writes the ones under src/repro/ to
# ``<dump dir>/<pid>-<token>.json`` on the way out.

_seen: Set = set()
#: ``--values``: field name -> reprs of the non-default values seen.
_values: Dict[str, Set[str]] = defaultdict(set)
_dump_dir = ""
_token = ""
_dumping = False
_real_exit = os._exit


def _trace(frame, event, arg):
    # A global trace function only sees "call" events; returning None
    # asks for no per-line tracing.
    _seen.add(frame.f_code)


def _new_token() -> None:
    global _token
    _token = uuid.uuid4().hex[:8]


def _dump() -> None:
    global _dumping
    if _dumping:
        return
    _dumping = True
    try:
        rows = sorted({
            (code.co_filename.replace(os.sep, "/").split(MARK, 1)[1],
             code.co_firstlineno)
            for code in list(_seen)
            if MARK in code.co_filename.replace(os.sep, "/")})
        _write(f"{os.getpid()}-{_token}.json", rows)
        if _values:
            _write(f"values/{os.getpid()}-{_token}.json",
                   {"label": os.environ.get("CENSUS_LABEL", ""),
                    "values": {k: sorted(v) for k, v in _values.items()}})
    finally:
        _dumping = False


def _write(name: str, doc) -> None:
    final = os.path.join(_dump_dir, name)
    tmp = final + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, final)


def _differs(value, default) -> bool:
    try:
        return bool(value != default)
    except ValueError:  # an array compares elementwise: no single truth
        return True


def _wrap_config(cls) -> None:
    """Record, on every ``ArchConfig`` built, each field off its default."""
    defaults = {
        f.name: (f.default if f.default is not dataclasses.MISSING
                 else f.default_factory())
        for f in dataclasses.fields(cls)}
    real = cls.__post_init__

    def __post_init__(self):
        for name, default in defaults.items():
            value = getattr(self, name)
            if _differs(value, default):
                _values[name].add(repr(value)[:40])
        real(self)

    cls.__post_init__ = __post_init__


class _ConfigFinder:
    """Meta-path finder that wraps ``ArchConfig`` once its module ran."""

    def find_spec(self, name, path, target=None):
        if name != "repro.arch.config":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        run = spec.loader.exec_module

        def exec_module(module):
            run(module)
            _wrap_config(module.ArchConfig)

        spec.loader.exec_module = exec_module
        return spec


def _exit(code):
    _dump()
    _real_exit(code)


def _on_term(signum, frame):
    if _dumping:
        return
    _dump()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def install(dump_dir: str, values: bool = False) -> None:
    """Start recording in this process (called by sitecustomize)."""
    global _dump_dir
    _dump_dir = dump_dir
    if values:
        os.makedirs(os.path.join(dump_dir, "values"), exist_ok=True)
        sys.meta_path.insert(0, _ConfigFinder())
    _new_token()
    os.register_at_fork(after_in_child=_new_token)
    atexit.register(_dump)
    os._exit = _exit
    signal.signal(signal.SIGTERM, _on_term)
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_runtest_call(item):
    """pytest plugin hook: re-arm tracing before every test body."""
    threading.settrace(_trace)
    sys.settrace(_trace)


SITECUSTOMIZE = """\
import importlib.util as _util

_spec = _util.spec_from_file_location("_census_hook", {hook!r})
_hook = _util.module_from_spec(_spec)
_spec.loader.exec_module(_hook)
_hook.install({dump_dir!r}, values={values!r})
pytest_runtest_call = _hook.pytest_runtest_call
"""


# -- the function table ----------------------------------------------------

def function_table(src_root: str) -> Dict[Tuple[str, int], Tuple[str, int]]:
    """``(file, first line) -> (qualified name, line count)`` for every
    ``def`` under ``src_root/repro``.  The first line is the first
    decorator's when there is one, as in ``co_firstlineno``."""
    table = {}
    for path in sorted(glob.glob(os.path.join(src_root, "repro", "**",
                                              "*.py"), recursive=True)):
        rel = os.path.relpath(path, os.path.join(src_root, "repro"))
        rel = rel.replace(os.sep, "/")
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    table[(rel, first)] = (
                        prefix + child.name,
                        child.end_lineno - child.lineno + 1)
                    walk(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return table


def reached(dump_dir: str) -> Set[Tuple[str, int]]:
    """Union of every process's dump: ``(file, first line)`` pairs.
    Waits (up to 10 s) for stragglers -- a daemon child or resource
    tracker can still be writing after the command that started it."""
    deadline = time.monotonic() + 10.0
    while ((glob.glob(os.path.join(dump_dir, "*.tmp"))
            or glob.glob(os.path.join(dump_dir, "values", "*.tmp")))
           and time.monotonic() < deadline):
        time.sleep(0.1)
    out = set()
    for path in glob.glob(os.path.join(dump_dir, "*.json")):
        with open(path) as fh:
            out.update(map(tuple, json.load(fh)))
    return out


def values_seen(dump_dir: str) -> Dict[str, Dict[str, List[str]]]:
    """``--values``: field -> entry point -> the non-default values it
    set.  Call after :func:`reached`, which waits for stragglers."""
    out: Dict[str, Dict[str, Set[str]]] = defaultdict(
        lambda: defaultdict(set))
    for path in glob.glob(os.path.join(dump_dir, "values", "*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        for name, vals in doc["values"].items():
            out[name][doc["label"]].update(vals)
    return {name: {label: sorted(vals) for label, vals in sorted(by.items())}
            for name, by in out.items()}


def config_fields(src_root: str) -> List[str]:
    """``ArchConfig``'s field names, in order, read from the source."""
    path = os.path.join(src_root, "repro", "arch", "config.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "ArchConfig")
    return [node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign)]


# -- the entry points ------------------------------------------------------

SHARDED_FAMILY = {
    "name": "mesh-family-sharded",
    "base": {"arch": {"preset": "shared_mesh"},
             "workload": {"benchmark": "quicksort", "scale": "tiny",
                          "seed": 0}},
    "axes": {"arch.n_cores": [9, 16],
             "arch.memory": ["shared", "distributed"],
             "arch.drift_bound": [50, 200]},
    "budget": "medium",
    "objectives": ["perf", "power", "area"],
}


def entry_points(tmp: str) -> List[Tuple[str, object]]:
    """``(label, argv or callable)`` for every entry point, in run order.
    Commands run in the copy's root with its ``src`` on ``PYTHONPATH``."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    figures = sorted(glob.glob("benchmarks/test_*.py"))
    family = os.path.join(tmp, "sharded-family.json")
    with open(family, "w") as fh:
        json.dump(SHARDED_FAMILY, fh)
    run = [*repro, "run", "quicksort", "--cores", "16", "--scale", "tiny"]
    sharded = ["--backend", "sharded", "--shards", "4"]
    sweep = [*repro, "sweep", "examples/sweeps/mesh_family.json",
             "--jobs", "2", "--store", os.path.join(tmp, "sweep-serial")]
    sweep_sharded = [*repro, "sweep", family, "--jobs", "2", "--backend",
                     "sharded", "--shards", "2",
                     "--store", os.path.join(tmp, "sweep-sharded")]
    points: List[Tuple[str, object]] = [
        ("figure suite", [py, "-m", "pytest", *figures, "-q",
                          "-p", "sitecustomize", "-p", "no:cacheprovider",
                          "--benchmark-disable"]),
        ("docs", [py, "-m", "pytest", "tests/test_docs.py", "-q",
                  "-p", "sitecustomize", "-p", "no:cacheprovider"]),
    ]
    for script in sorted(glob.glob("examples/*.py")):
        points.append((script, [py, script]))
    points += [
        ("e2e --quick", [py, "benchmarks/e2e/run.py", "--quick"]),
        ("e2e --quick --trace 1", [py, "benchmarks/e2e/run.py", "--quick",
                                   "--trace", "1"]),
        ("telemetry run", [*run, *sharded, "--telemetry", "--telemetry-out",
                           os.path.join(tmp, "obs")]),
        ("obs summarize", [*repro, "obs", "summarize",
                           os.path.join(tmp, "obs")]),
        ("memory past 1024", [py, "tests/memory_past_1024.py"]),
        ("cold start", [py, "-c", "import repro.cli"]),
        ("fuzz corpus", [py, "tests/fuzz_corpus.py"]),
        ("fuzz --snapshot", [*repro, "fuzz", "--snapshot", "--cases", "50",
                             "--seed", "0"]),
    ]
    for label, extra in (("serial", []), ("sharded", sharded)):
        ckpt = os.path.join(tmp, f"qs-{label}.ckpt")
        points += [
            (f"checkpoint ({label})", [*run, *extra, "--checkpoint-every",
                                       "2000", "--checkpoint", ckpt]),
            (f"resume ({label})", [*repro, "run", "--resume", ckpt]),
        ]
    points += [
        ("serve", lambda env: _service_smoke(env, tmp)),
        ("sweep (serial)", sweep),
        ("sweep (serial, again)", sweep),
        ("sweep (sharded)", sweep_sharded),
        ("sweep (sharded, again)", sweep_sharded),
    ]
    return points


def _service_smoke(env: Dict[str, str], tmp: str) -> int:
    """The CI service smoke: ``repro serve``, one serial and one sharded
    spec each submitted twice, then SIGTERM."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", os.path.join(tmp, "service-store")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        line = proc.stdout.readline()
        base = line.split("listening on ", 1)[1].strip()
        arch = {"serial": {"preset": "shared_mesh", "n_cores": 9},
                "sharded": {"preset": "shared_mesh", "n_cores": 16,
                            "shards": 4, "backend": "sharded"}}
        for spec_arch in arch.values():
            spec = {"arch": spec_arch,
                    "workload": {"benchmark": "quicksort", "scale": "tiny",
                                 "seed": 0},
                    "options": {"wait": True}}
            for _ in range(2):
                req = urllib.request.Request(
                    base + "/v1/jobs", data=json.dumps(spec).encode(),
                    method="POST",
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(req, timeout=600) as resp:
                    json.loads(resp.read())
            with urllib.request.urlopen(base + "/v1/metrics",
                                        timeout=60) as resp:
                json.loads(resp.read())
        return 0
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def run_set(points, root: str, dump_dir: str,
            values: bool = False) -> List[str]:
    """Run every entry point in ``root``; return the labels that failed
    (a failure still counts what it reached).  Each runs with its label
    in ``CENSUS_LABEL``, which the value census files its rows under."""
    # The examples read EXAMPLE_ENV; nothing else does.
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONUNBUFFERED="1", **EXAMPLE_ENV)
    os.makedirs(dump_dir, exist_ok=True)
    with open(os.path.join(root, "src", "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE.format(
            hook=os.path.join(root, "tests", "census.py"),
            dump_dir=dump_dir, values=values))
    failed = []
    for label, cmd in points:
        t0 = time.monotonic()
        point_env = dict(env, CENSUS_LABEL=label)
        if callable(cmd):
            try:
                code = cmd(point_env)
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                print(f"    {label}: {exc!r}", file=sys.stderr)
                code = 1
        else:
            code = subprocess.run(
                cmd, cwd=root, env=point_env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL).returncode
        print(f"  {label:28s} exit {code:3d}  {time.monotonic() - t0:6.1f} s",
              file=sys.stderr)
        if code != 0:
            failed.append(label)
    return failed


def _copy_tree(dest: str) -> None:
    shutil.copytree(REPO, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
        ".repro-service", "*.egg-info", "out"))


# -- report ----------------------------------------------------------------

def report(table, entry: Set, tier1: Optional[Set]) -> dict:
    """Totals, and per file the functions ``entry`` never reached."""
    missed = sorted(k for k in table if k not in entry)
    by_file: Dict[str, List] = defaultdict(list)
    for rel, line in missed:
        name, lines = table[(rel, line)]
        by_file[rel].append({
            "line": line, "name": name, "lines": lines,
            "tier1": None if tier1 is None else (rel, line) in tier1})
    total_lines = sum(lines for _name, lines in table.values())
    return {
        "functions": len(table), "lines": total_lines,
        "unreached": len(missed),
        "unreached_lines": sum(table[k][1] for k in missed),
        "files": dict(sorted(by_file.items())),
    }


def print_report(doc: dict, failed: List[str], with_tier1: bool) -> None:
    print(f"src/repro/: {doc['functions']} functions, "
          f"{doc['lines']} lines")
    print(f"never called by the entry points: {doc['unreached']} functions "
          f"({doc['unreached_lines']} lines)")
    if with_tier1:
        rows = [r for rows in doc["files"].values() for r in rows]
        only = [r for r in rows if r["tier1"]]
        neither = [r for r in rows if not r["tier1"]]
        print(f"  reached only by tier-1: {len(only)} "
              f"({sum(r['lines'] for r in only)} lines)")
        print(f"  reached by neither    : {len(neither)} "
              f"({sum(r['lines'] for r in neither)} lines)")
    if failed:
        print(f"entry points that exited non-zero: {', '.join(failed)}")
    for rel, rows in doc["files"].items():
        print(f"\n{rel}  {len(rows)} functions, "
              f"{sum(r['lines'] for r in rows)} lines")
        for r in rows:
            mark = ""
            if with_tier1:
                mark = "  tier-1" if r["tier1"] else "  NEITHER"
            print(f"  {r['line']:5d}  {r['name']:48s} {r['lines']:4d}{mark}")


def print_values(fields: List[str], seen: dict) -> None:
    """``--values``: per ``ArchConfig`` field, the entry points that set
    it off its default and the values they set (up to four shown)."""
    print("\nvalue census: ArchConfig fields set off their default")
    for name in fields:
        by = seen.get(name)
        if not by:
            print(f"  {name:28s} default only")
            continue
        vals = sorted({v for vs in by.values() for v in vs})
        more = f" (+{len(vals) - 4})" if len(vals) > 4 else ""
        print(f"  {name:28s} {len(by):2d} entry points: "
              f"{', '.join(vals[:4])}{more}")
        print(f"  {'':28s} {', '.join(by)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Call census of src/repro/ over the entry points.")
    parser.add_argument("--tier1", action="store_true",
                        help="also run the tier-1 suite as a second set")
    parser.add_argument("--values", action="store_true",
                        help="also record, per entry point, every "
                             "ArchConfig field set off its default")
    parser.add_argument("--json", metavar="PATH",
                        help="write the report as JSON")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.json) if args.json else None

    tmp = tempfile.mkdtemp(prefix="census-")
    try:
        root = os.path.join(tmp, "repo")
        _copy_tree(root)
        os.chdir(root)
        print("entry points:", file=sys.stderr)
        entry_dumps = os.path.join(tmp, "entry")
        failed = run_set(entry_points(tmp), root, entry_dumps, args.values)
        tier1 = None
        if args.tier1:
            print("tier-1:", file=sys.stderr)
            tier1_dumps = os.path.join(tmp, "tier1")
            failed += run_set(
                [("tier-1 suite", [sys.executable, "-m", "pytest", "tests",
                                   "-q", "-p", "sitecustomize",
                                   "-p", "no:cacheprovider"])],
                root, tier1_dumps)
            tier1 = reached(tier1_dumps)
        doc = report(function_table(os.path.join(root, "src")),
                     reached(entry_dumps), tier1)
        doc["failed"] = failed
        print_report(doc, failed, args.tier1)
        if args.values:
            doc["values"] = values_seen(entry_dumps)
            print_values(config_fields(os.path.join(root, "src")),
                         doc["values"])
        if out:
            with open(out, "w") as fh:
                json.dump(doc, fh, indent=1)
    finally:
        os.chdir(REPO)
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
