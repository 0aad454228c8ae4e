"""Design-space exploration engine: spec validation, cost models,
budget pruning, deterministic frames, cache-first execution, the sweep
CLI and the ``/v1/sweeps`` service endpoint.

The load-bearing properties pinned here:

* a sweep's result frame is **byte-identical** across re-runs and
  worker counts (completion order and cache state never leak in);
* a re-run of the same sweep performs **zero** new simulations — the
  ``service.simulations_started`` counter delta is the proof;
* a cell that fails is isolated: the frame records it, every other
  cell still completes.

Pure Pareto-filter properties live in ``tests/test_dse_pareto.py``.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import urllib.error
import urllib.request

import pytest

from repro.arch import polymorphic_shared, shared_mesh
from repro.dse import (BUDGETS, CostModel, SweepSpecError, SystemBudget,
                       expand_sweep, frame_csv, frame_json, pareto_chart,
                       resolve_budget, run_sweep)

BASE = {
    "arch": {"preset": "shared_mesh"},
    "workload": {"benchmark": "quicksort", "scale": "tiny"},
}


def spec(axes=None, **extra):
    payload = {"base": {"arch": dict(BASE["arch"]),
                        "workload": dict(BASE["workload"])}}
    payload["axes"] = axes or {"arch.n_cores": [9, 16]}
    payload.update(extra)
    return payload


# -- spec validation ----------------------------------------------------------

class TestSweepSpecValidation:
    def test_minimal_spec_expands(self):
        plan = expand_sweep(spec())
        assert plan.n_cells == 2
        assert [c.spec.cfg.n_cores for c in plan.cells] == [9, 16]
        assert len({c.spec.spec_hash for c in plan.cells}) == 2
        assert len(plan.sweep_hash) == 64

    def test_cell_order_is_sorted_axis_cartesian(self):
        plan = expand_sweep(spec(axes={
            "workload.seed": [0, 1],
            "arch.n_cores": [9, 16],
        }))
        # Axes iterate in sorted-name order: arch.n_cores outermost.
        assert [c.params for c in plan.cells] == [
            {"arch.n_cores": 9, "workload.seed": 0},
            {"arch.n_cores": 9, "workload.seed": 1},
            {"arch.n_cores": 16, "workload.seed": 0},
            {"arch.n_cores": 16, "workload.seed": 1},
        ]

    @pytest.mark.parametrize("bad, fragment", [
        ({"axes": {"arch.bogus": [1]}}, "unknown sweep axis"),
        ({"axes": {"n_cores": [9]}}, "unknown sweep axis"),
        ({"axes": {"workload.memory": ["shared"]}}, "unknown sweep axis"),
        ({"axes": {"arch.n_cores": []}}, "at least one value"),
        ({"axes": {"arch.n_cores": 9}}, "at least one value"),
        ({"axes": {"arch.n_cores": [9, 9]}}, "repeats a value"),
        ({"axes": {"arch.n_cores": [[9]]}}, "JSON scalars"),
        ({"axes": {}}, "non-empty"),
        ({"axes": {"arch.n_cores": [9]}, "nope": 1}, "unknown sweep key"),
        ({"axes": {"arch.n_cores": [9]}, "budget": "huge"},
         "unknown budget preset"),
        ({"axes": {"arch.n_cores": [9]}, "budget": {"max_power_w": -1}},
         "positive number"),
        ({"axes": {"arch.n_cores": [9]}, "cost_model": {"nope": 1.0}},
         "unknown cost_model field"),
        ({"axes": {"arch.n_cores": [9]}, "objectives": ["speed"]},
         "unknown objective"),
        ({"axes": {"arch.n_cores": [9]}, "objectives": ["perf", "perf"]},
         "duplicate objectives"),
    ])
    def test_rejects_bad_specs(self, bad, fragment):
        payload = spec()
        payload.update(bad)
        with pytest.raises(SweepSpecError, match=fragment):
            expand_sweep(payload)

    def test_cell_resolution_failure_names_the_cell(self):
        # root_core 10 is valid on 16 cores, out of range on 9.
        payload = spec(axes={"arch.n_cores": [9, 16],
                             "workload.root_core": [0, 10]})
        with pytest.raises(SweepSpecError, match=r"cell 1 .*root_core"):
            expand_sweep(payload)

    def test_expansion_cap(self):
        payload = spec(axes={"workload.seed": list(range(5000))})
        with pytest.raises(SweepSpecError, match="cap"):
            expand_sweep(payload)

    def test_sweep_hash_tracks_content(self):
        a = expand_sweep(spec())
        b = expand_sweep(spec())
        assert a.sweep_hash == b.sweep_hash
        c = expand_sweep(spec(budget="small"))
        d = expand_sweep(spec(objectives=["perf", "energy"]))
        assert len({a.sweep_hash, c.sweep_hash, d.sweep_hash}) == 3


# -- cost / budget models -----------------------------------------------------

class TestCostModel:
    def test_deterministic_and_monotonic_in_cores(self):
        model = CostModel()
        small = model.evaluate(shared_mesh(9))
        again = model.evaluate(shared_mesh(9))
        large = model.evaluate(shared_mesh(64))
        assert small == again
        assert large["area_mm2"] > small["area_mm2"]
        assert large["peak_power_w"] > small["peak_power_w"]
        assert small["core_classes"]["base"]["count"] == 9

    def test_memory_organization_ordering(self):
        from repro.arch import dist_mesh, numa_mesh

        model = CostModel()
        shared = model.evaluate(shared_mesh(16))["area_mm2"]
        numa = model.evaluate(numa_mesh(16))["area_mm2"]
        dist = model.evaluate(dist_mesh(16))["area_mm2"]
        assert shared > numa > dist

    def test_polymorphic_fast_cores_cost_more(self):
        model = CostModel()
        cost = model.evaluate(polymorphic_shared(16))
        classes = cost["core_classes"]
        assert set(classes) == {"fast", "eff"}
        assert classes["fast"]["area_mm2"] > classes["eff"]["area_mm2"]
        assert classes["fast"]["dynamic_w"] > classes["eff"]["dynamic_w"]
        # Pollack-style: same core count as uniform, strictly more area.
        uniform = model.evaluate(shared_mesh(16))
        assert sum(c["count"] for c in classes.values()) == 16
        assert cost["area_mm2"] != uniform["area_mm2"]

    def test_budget_violations_name_every_breach(self):
        cfg = shared_mesh(64)
        cost = CostModel().evaluate(cfg)
        tight = SystemBudget(max_power_w=1.0, max_area_mm2=1.0, max_cores=9)
        msgs = tight.violations(cost, cfg)
        assert len(msgs) == 3
        assert any("power" in m for m in msgs)
        assert any("area" in m for m in msgs)
        assert any("cores" in m for m in msgs)
        assert SystemBudget().violations(cost, cfg) == []

    def test_budget_presets_resolve(self):
        assert resolve_budget("small") is BUDGETS["small"]
        assert resolve_budget(None) == SystemBudget()
        assert resolve_budget({"max_cores": 16}).max_cores == 16

    def test_pruned_cells_never_simulate(self, tmp_path):
        payload = spec(axes={"arch.n_cores": [9, 64]},
                       budget={"max_cores": 16})
        plan = expand_sweep(payload)
        assert [c.pruned for c in plan.cells] == [False, True]
        outcome = run_sweep(plan, store_dir=str(tmp_path / "s"), jobs=2)
        assert outcome.execution["simulations_started"] == 1
        assert outcome.execution["cells_pruned"] == 1
        statuses = {c["index"]: c["status"]
                    for c in outcome.frame["cells"]}
        assert statuses == {0: "ok", 1: "pruned"}
        assert outcome.frame["cells"][1]["violations"]


# -- deterministic execution --------------------------------------------------

class TestSweepDeterminism:
    AXES = {"arch.n_cores": [9, 16], "arch.drift_bound": [50.0, 100.0],
            "workload.seed": [0, 1]}

    def test_rerun_is_byte_identical_and_simulation_free(self, tmp_path):
        store = str(tmp_path / "cache")
        plan = expand_sweep(spec(axes=self.AXES))
        first = run_sweep(plan, store_dir=store, jobs=4)
        assert first.execution["simulations_started"] == 8
        assert first.execution["cells_ok"] == 8
        # Same spec, different worker count: identical bytes, zero new
        # simulations — the cache-first re-run contract.
        second = run_sweep(expand_sweep(spec(axes=self.AXES)),
                           store_dir=store, jobs=1)
        assert second.execution["simulations_started"] == 0
        assert second.execution["cache_hits"] == 8
        assert frame_json(first.frame) == frame_json(second.frame)
        assert first.frame["pareto"] == second.frame["pareto"]

    def test_jobs_width_does_not_change_the_frame(self, tmp_path):
        plan = expand_sweep(spec(axes=self.AXES))
        wide = run_sweep(plan, store_dir=str(tmp_path / "a"), jobs=4)
        narrow = run_sweep(expand_sweep(spec(axes=self.AXES)),
                           store_dir=str(tmp_path / "b"), jobs=1)
        # Independent stores: both runs simulate everything, and the
        # frames still match byte for byte.
        assert narrow.execution["simulations_started"] == 8
        assert frame_json(wide.frame) == frame_json(narrow.frame)

    def test_partial_cache_simulates_only_missing_cells(self, tmp_path):
        store = str(tmp_path / "cache")
        small = expand_sweep(spec(axes={"arch.n_cores": [9, 16]}))
        run_sweep(small, store_dir=store, jobs=2)
        grown = expand_sweep(spec(axes={"arch.n_cores": [9, 16, 25]}))
        outcome = run_sweep(grown, store_dir=store, jobs=2)
        assert outcome.execution["simulations_started"] == 1
        assert outcome.execution["cache_hits"] == 2

    def test_fresh_evicts_and_resimulates(self, tmp_path):
        store = str(tmp_path / "cache")
        plan = expand_sweep(spec())
        run_sweep(plan, store_dir=store, jobs=2)
        again = run_sweep(expand_sweep(spec()), store_dir=store, jobs=2,
                          fresh=True)
        assert again.execution["simulations_started"] == 2
        assert again.execution["cache_hits"] == 0

    def test_frame_has_no_host_dependent_fields(self, tmp_path):
        outcome = run_sweep(expand_sweep(spec()),
                            store_dir=str(tmp_path / "s"), jobs=2)
        text = frame_json(outcome.frame)
        for leak in ("wall_seconds", "host", "telemetry", "trace_digest"):
            assert leak not in text
        # Execution accounting lives outside the frame.
        assert "simulations_started" in outcome.execution


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork workers")
def test_sharded_cells_from_pool_threads_never_hang_at_fork(tmp_path):
    # CI's sharded sweep family: two pool threads each start sharded
    # cells.  When cells ran on those threads, a shard worker forked
    # while the sibling thread held the resource tracker's lock blocked
    # in SharedRoundBoard.attach until the cell timed out (most runs
    # hung before the fork lock).  Each cell now runs in a job process
    # of its own, which forks its shard workers from its one thread.
    # A clean run takes well under a second.
    family = spec(axes={"arch.n_cores": [9, 16],
                        "arch.memory": ["shared", "distributed"],
                        "arch.drift_bound": [50, 200]},
                  budget="medium")
    family["base"]["arch"].update(backend="sharded", shards=2)
    for i in range(8):
        outcome = run_sweep(expand_sweep(family),
                            store_dir=str(tmp_path / f"run{i}"), jobs=2,
                            timeout_s=10.0)
        assert outcome.execution["cells_ok"] == 8, (i, outcome.execution)


class TestFailureIsolation:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="a patched executor reaches only forked job processes")
    def test_one_crashing_cell_does_not_sink_the_sweep(self, tmp_path,
                                                       monkeypatch):
        import repro.service.queue as queue_mod

        real = queue_mod._execute

        def flaky(spec, *args):
            if spec.cfg.n_cores == 16:
                raise RuntimeError("boom")
            return real(spec, *args)

        monkeypatch.setattr(queue_mod, "_execute", flaky)
        plan = expand_sweep(spec(axes={"arch.n_cores": [9, 16, 25]}))
        outcome = run_sweep(plan, store_dir=str(tmp_path / "s"), jobs=2)
        by_index = {c["index"]: c for c in outcome.frame["cells"]}
        assert by_index[0]["status"] == "ok"
        assert by_index[1]["status"] == "failed"
        assert by_index[1]["error"] == {"type": "RuntimeError",
                                       "message": "boom"}
        assert by_index[2]["status"] == "ok"
        assert outcome.execution["cells_failed"] == 1
        # Failed cells never enter the Pareto frontier.
        assert 1 not in outcome.frame["pareto"]["cells"]

    def test_result_removed_before_the_frame_is_a_failed_cell(self, tmp_path,
                                                              monkeypatch):
        # A done job holds no copy of its document: it reads the store.
        # An entry removed between completion and frame build must cost
        # that one cell, not raise out of the sweep.
        from repro.dse import runner

        store_dir = tmp_path / "s"
        plan = expand_sweep(spec(axes={"arch.n_cores": [9, 16]}))
        victim = plan.cells[1].spec.spec_hash
        real_await = runner._await_cells

        def await_then_evict(cell_jobs, timeout_s):
            real_await(cell_jobs, timeout_s)
            (store_dir / f"{victim}.json").unlink()

        monkeypatch.setattr(runner, "_await_cells", await_then_evict)
        outcome = run_sweep(plan, store_dir=str(store_dir), jobs=2)
        by_index = {c["index"]: c for c in outcome.frame["cells"]}
        assert by_index[0]["status"] == "ok"
        assert by_index[1]["status"] == "failed"
        assert by_index[1]["error"]["type"] == "result_missing"
        assert outcome.frame["pareto"]["cells"] == [0]


# -- exports ------------------------------------------------------------------

class TestExports:
    def test_csv_layout(self, tmp_path):
        outcome = run_sweep(expand_sweep(spec()),
                            store_dir=str(tmp_path / "s"), jobs=2)
        lines = frame_csv(outcome.frame).strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["index", "status", "pareto", "spec_hash"]
        assert "arch.n_cores" in header and "perf" in header
        assert len(lines) == 1 + 2
        assert {row.split(",")[2] for row in lines[1:]} <= {"0", "1"}

    def test_pareto_chart_renders(self, tmp_path):
        outcome = run_sweep(expand_sweep(spec()),
                            store_dir=str(tmp_path / "s"), jobs=2)
        chart = pareto_chart(outcome.frame)
        assert "pareto" in chart and "peak_power_w" in chart


# -- CLI ----------------------------------------------------------------------

class TestSweepCli:
    def write_spec(self, tmp_path, payload=None):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(payload or spec()))
        return str(path)

    def run_cli(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_spec_file_mode_and_cached_rerun(self, tmp_path):
        path = self.write_spec(tmp_path)
        store = str(tmp_path / "store")
        frame1, frame2 = str(tmp_path / "f1.json"), str(tmp_path / "f2.json")
        code, text = self.run_cli("sweep", path, "--jobs", "2",
                                  "--store", store, "--out", frame1)
        assert code == 0
        assert "simulated        : 2 new" in text
        assert "Pareto frontier" in text
        code, text = self.run_cli("sweep", path, "--jobs", "1",
                                  "--store", store, "--out", frame2)
        assert code == 0
        assert "simulated        : 0 new" in text
        with open(frame1) as a, open(frame2) as b:
            assert a.read() == b.read()

    def test_csv_export(self, tmp_path):
        path = self.write_spec(tmp_path)
        csv_path = str(tmp_path / "cells.csv")
        code, _ = self.run_cli("sweep", path, "--store",
                               str(tmp_path / "store"), "--csv", csv_path)
        assert code == 0
        with open(csv_path) as fh:
            assert fh.readline().startswith("index,status,pareto")

    def test_invalid_spec_file_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"axes": {"arch.bogus": [1]}}))
        code, _ = self.run_cli("sweep", str(bad))
        assert code == 2
        assert "unknown sweep axis" in capsys.readouterr().err

    def test_unknown_target_is_a_usage_error(self, capsys):
        code, _ = self.run_cli("sweep", "not-a-figure-or-file")
        assert code == 2
        assert "neither a known figure" in capsys.readouterr().err


# -- service endpoint ---------------------------------------------------------

class TestSweepEndpoint:
    @pytest.fixture
    def service(self, tmp_path):
        from repro.service import serve_in_background

        svc, _ = serve_in_background(str(tmp_path / "store"), workers=2)
        yield svc
        svc.close()

    def post(self, svc, path, payload):
        req = urllib.request.Request(
            svc.base_url + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())

    def get(self, svc, path):
        with urllib.request.urlopen(svc.base_url + path) as resp:
            return resp.status, json.loads(resp.read())

    def test_submit_wait_rerun_and_listing(self, service):
        status, body = self.post(service, "/v1/sweeps?wait=1", spec())
        assert status == 200 and body["state"] == "done"
        assert body["execution"]["simulations_started"] == 2
        assert len(body["frame"]["cells"]) == 2
        # Same sweep again: zero new simulations, identical frame.
        status, again = self.post(service, "/v1/sweeps?wait=1", spec())
        assert again["execution"]["simulations_started"] == 0
        assert again["execution"]["cache_hits"] == 2
        assert again["frame"] == body["frame"]
        status, listing = self.get(service, "/v1/sweeps")
        assert status == 200 and len(listing["sweeps"]) == 2
        sid = body["sweep_id"]
        status, one = self.get(service, f"/v1/sweeps/{sid}?frame=0")
        assert status == 200 and "frame" not in one
        status, one = self.get(service, f"/v1/sweeps/{sid}")
        assert one["frame"] == body["frame"]

    def test_invalid_sweep_spec_is_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            self.post(service, "/v1/sweeps", {"axes": {"arch.bogus": [1]}})
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["type"] == "invalid_spec"

    def test_unknown_sweep_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            self.get(service, "/v1/sweeps/nope")
        assert err.value.code == 404

    def test_metrics_carry_sweep_counters(self, service):
        self.post(service, "/v1/sweeps?wait=1", spec())
        _, metrics = self.get(service, "/v1/metrics")
        assert metrics["counters"]["service.sweeps_submitted"] == 1
        assert metrics["counters"]["service.sweeps_completed"] == 1
        assert metrics["counters"]["service.sweep_cells"] == 2
