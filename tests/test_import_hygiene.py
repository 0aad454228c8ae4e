"""What a fresh process loads before its first verified result.

Cold start is paid by every CLI run, shard worker and service start, so
third-party packages other than numpy are imported at their use site,
a package resolves its exports on first use, and a run imports the
modules it executes (docs/internals.md, "Cold start").  These tests pin
the module *sets* — never seconds — in a fresh interpreter, because
this process has long since imported scipy and networkx for other
tests.
"""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

from repro.workloads import BENCHMARKS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

HEAVY = {"scipy", "networkx", "matplotlib"}

PRELUDE = """
import sys
import repro, repro.cli, repro.service, repro.dse, repro.parallel
import repro.checkpoint
from repro.workloads import get_workload

def build_and_verify(name):
    workload = get_workload(name, scale="tiny", seed=0, memory="shared")
    workload.verify(workload.native())

def heavy():
    loaded = {m.split(".")[0] for m in sys.modules}
    return sorted(loaded & %r)
""" % (HEAVY,)


def _fresh(body, prelude=PRELUDE):
    """Run ``prelude + body`` in a new interpreter; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", prelude + body], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_entry_points_and_graph_dwarfs_load_only_numpy():
    out = _fresh("""
print(heavy())
build_and_verify("dijkstra")
build_and_verify("connected_components")
print(heavy())
""")
    assert out.splitlines() == ["[]", "[]"]


def test_spmxv_is_the_one_dwarf_that_loads_scipy():
    assert _fresh("""
build_and_verify("spmxv")
print(heavy())
""") == "['scipy']"


#: Never loaded by a serial run: the sharded backend's driver, the
#: cycle-level referee, the figure runners, checkpoints, sweeps, the
#: service, and telemetry's registry and Chrome-trace writer.
SERIAL_NEVER = (
    "repro.parallel.coordinator", "repro.parallel.worker",
    "repro.parallel.partition", "repro.cyclelevel", "repro.harness",
    "repro.checkpoint", "repro.dse", "repro.service",
    "repro.obs.registry", "repro.obs.chrome_trace",
)

MODULES = "\nprint(json.dumps(sorted(sys.modules)))\n"


def _loaded(body):
    return set(json.loads(_fresh("import json, sys\n" + body + MODULES,
                                 prelude="")))


def _under(modules, roots):
    return sorted(m for m in modules
                  if any(m == r or m.startswith(r + ".") for r in roots))


@pytest.mark.parametrize("name", BENCHMARKS)
def test_serial_run_loads_its_own_dwarf_only(name):
    loaded = _loaded(f"""
from repro.arch import build_machine, shared_mesh
from repro.workloads import get_workload
workload = get_workload({name!r}, scale="tiny", seed=0)
machine = build_machine(shared_mesh(16))
workload.verify(machine.run(workload.root)["output"])
""")
    dwarfs = {f"repro.workloads.{b}" for b in BENCHMARKS}
    assert sorted(loaded & dwarfs) == [f"repro.workloads.{name}"]
    assert _under(loaded, SERIAL_NEVER) == []
    assert _under(loaded, ("multiprocessing",)) == []


def test_cli_run_without_checkpoint_flags_loads_no_checkpoint():
    loaded = _loaded("""
import io
from repro.cli import main
main(["run", "quicksort", "--cores", "16", "--scale", "tiny"],
     out=io.StringIO())
""")
    assert "repro.workloads.quicksort" in loaded
    assert _under(loaded, ("repro.checkpoint", "multiprocessing")) == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="only forked shard workers inherit imports")
def test_shard_workers_resolve_their_specs_without_importing(tmp_path):
    # Each shard worker records what resolving its specs imported.
    assert _fresh(f"""
import dataclasses, json, os, sys
import repro.parallel.coordinator as coordinator
from repro.arch import build_backend, shared_mesh
from repro.parallel import WorkloadSpec

real_main, real_resolve = coordinator.worker_main, WorkloadSpec.resolve
before = set()

def worker_main(*args):
    before.update(sys.modules)
    real_main(*args)

def resolve(self):
    workload = real_resolve(self)
    if before:
        name = f"{{os.getpid()}}-{{self.benchmark}}"
        with open(os.path.join({str(tmp_path)!r}, name), "w") as fh:
            json.dump(sorted(set(sys.modules) - before), fh)
    return workload

coordinator.worker_main, WorkloadSpec.resolve = worker_main, resolve
cfg = dataclasses.replace(shared_mesh(16), backend="sharded", shards=2)
build_backend(cfg).run_workloads([
    WorkloadSpec("quicksort", scale="tiny", root_core=0),
    WorkloadSpec("connected_components", scale="tiny", root_core=8)])
print("ok")
""", prelude="") == "ok"
    records = sorted(tmp_path.iterdir())
    assert len(records) == 2   # each worker resolves the spec it roots
    for record in records:
        assert json.loads(record.read_text()) == [], record.name


LAZY_PACKAGES = ("repro", "repro.harness", "repro.obs", "repro.parallel",
                 "repro.workloads")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves(package):
    # Fresh, so no other test has bound a name by importing its module.
    assert _fresh(f"""
import importlib
namespace = {{}}
exec("from {package} import *", namespace)
module = importlib.import_module({package!r})
listed = dir(module)
for name in module.__all__:
    assert name in listed, name
    assert namespace[name] is getattr(module, name), name
try:
    module.no_such_export
except AttributeError:
    print("ok")
""", prelude="") == "ok"
