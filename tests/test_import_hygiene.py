"""What a fresh process loads before its first verified result.

Cold start is paid by every CLI run, shard worker and service start, so
third-party packages other than numpy are imported at their use site
(docs/internals.md, "Cold start").  These tests pin the module *sets* —
never seconds — in a fresh interpreter, because this process has long
since imported scipy and networkx for other tests.
"""

import os
import pathlib
import subprocess
import sys

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


def _fresh(body):
    """Run ``PRELUDE + body`` in a new interpreter; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body], env=env,
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
