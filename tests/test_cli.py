"""Tests for the command-line interface."""

import io
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.core.sync import POLICIES
from repro.runtime.dispatch import DISPATCH_POLICIES
from repro.service.hashing import PRESETS


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "mining"])

    def test_sizes_parsing(self):
        args = build_parser().parse_args(["sweep", "fig8", "--sizes", "1,4,16"])
        assert args.sizes == (1, 4, 16)


class TestList:
    def test_lists_benchmarks(self):
        code, text = run_cli("list")
        assert code == 0
        for name in ("quicksort", "dijkstra", "octree"):
            assert name in text


class TestInfo:
    def test_paper_parameters_shown(self):
        code, text = run_cli("info")
        assert code == 0
        assert "drift bound T" in text
        assert "100" in text

    def test_presets_are_the_ones_a_spec_accepts(self):
        code, text = run_cli("info")
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("architecture presets:"))
        named = line.split(":", 1)[1].replace(",", " ").split()
        assert named == list(PRESETS)


class TestVocabulary:
    """The CLI's choices are the registries', not copies of them."""

    @pytest.mark.parametrize("flag,registry", [
        ("--sync", POLICIES), ("--dispatch", DISPATCH_POLICIES)],
        ids=["sync", "dispatch"])
    def test_run_accepts_every_registry_name(self, flag, registry):
        for name in registry:
            args = build_parser().parse_args(
                ["run", "quicksort", flag, name])
            assert getattr(args, flag[2:]) == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quicksort", flag, "nope"])


class TestRun:
    def test_basic_run(self):
        code, text = run_cli("run", "octree", "--cores", "4",
                             "--scale", "tiny")
        assert code == 0
        assert "virtual time" in text
        assert "output verified  : yes" in text

    def test_with_baseline(self):
        code, text = run_cli("run", "spmxv", "--cores", "4",
                             "--scale", "tiny", "--baseline")
        assert code == 0
        assert "speedup vs 1 core" in text

    def test_distributed(self):
        code, text = run_cli("run", "quicksort", "--cores", "4",
                             "--memory", "distributed", "--scale", "tiny")
        assert code == 0
        assert "output verified  : yes" in text

    def test_polymorphic(self):
        code, text = run_cli("run", "octree", "--cores", "4",
                             "--arch", "polymorphic", "--scale", "tiny")
        assert code == 0

    def test_clustered_requires_distributed(self):
        with pytest.raises(SystemExit):
            run_cli("run", "octree", "--cores", "16", "--arch", "clustered",
                    "--memory", "shared", "--scale", "tiny")

    def test_sync_selection(self):
        code, text = run_cli("run", "octree", "--cores", "4",
                             "--scale", "tiny", "--sync", "conservative")
        assert code == 0
        assert "sync=conservative" in text

    def test_dispatch_selection(self):
        code, _ = run_cli("run", "octree", "--cores", "4", "--scale", "tiny",
                          "--dispatch", "speed_aware")
        assert code == 0

    def test_drift_override(self):
        code, text = run_cli("run", "octree", "--cores", "4",
                             "--scale", "tiny", "--drift", "500")
        assert code == 0
        assert "T=500" in text

    def test_sharded_backend(self):
        code, text = run_cli("run", "quicksort", "--cores", "16",
                             "--scale", "tiny", "--backend", "sharded",
                             "--shards", "2")
        assert code == 0
        assert "sharded backend: partition 2 shards" in text
        assert "output verified  : yes" in text

    def test_sharded_backend_requires_shards(self):
        with pytest.raises(SystemExit, match="--shards"):
            run_cli("run", "quicksort", "--cores", "16", "--scale", "tiny",
                    "--backend", "sharded")

    @pytest.mark.parametrize("argv", [
        ("run", "octree", "--cores", "0"),
        ("run", "octree", "--cores", "16", "--backend", "sharded",
         "--shards", "32"),
        ("serve", "--workers", "0", "--port", "0"),
    ], ids=["no-cores", "more-shards-than-cores", "no-workers"])
    def test_refused_config_is_one_line(self, argv, tmp_path):
        # A process of its own: what a user sees is stderr and the code.
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


class TestSweep:
    @pytest.mark.parametrize("figure", ["fig8", "fig9"])
    def test_scalability_sweeps(self, figure):
        code, text = run_cli("sweep", figure, "--sizes", "1,4",
                             "--scale", "tiny")
        assert code == 0
        assert "speedup" in text

    def test_validation_sweep(self):
        code, text = run_cli("sweep", "fig5", "--sizes", "1,4",
                             "--scale", "tiny")
        assert code == 0
        assert "geomean error" in text

    def test_drift_sweep(self):
        code, text = run_cli("sweep", "fig10", "--sizes", "1,4",
                             "--scale", "tiny")
        assert code == 0
        assert "T=50" in text


class TestPolicies:
    def test_policy_comparison(self):
        code, text = run_cli("policies", "octree", "--cores", "4",
                             "--scale", "tiny")
        assert code == 0
        assert "conservative" in text
        assert "spatial" in text
