"""Sweep-space declaration, validation and expansion.

A **sweep spec** declares a family of simulations as a base run spec
plus typed parameter axes::

    {
      "name": "mesh-family",
      "base": {
        "arch":     {"preset": "shared_mesh", "n_cores": 9},
        "workload": {"benchmark": "quicksort", "scale": "tiny"}
      },
      "axes": {
        "arch.n_cores":     [9, 16],
        "arch.drift_bound": [50.0, 100.0],
        "workload.seed":    [0, 1]
      },
      "budget":     {"max_power_w": 150.0, "max_area_mm2": 400.0},
      "cost_model": {},
      "objectives": ["perf", "power", "area"]
    }

Axis names are dotted paths into the two spec sections: ``arch.<field>``
must name a real :class:`~repro.arch.ArchConfig` field (or the preset
keys ``preset`` / ``n_clusters``), ``workload.<field>`` one of the
workload identity fields.  :func:`expand_sweep` takes the cartesian
product — axes in sorted-name order, values in declared order, which
fixes a deterministic **cell index** for the whole sweep — and resolves
every cell through the *existing* service machinery
(:func:`repro.service.hashing.resolve_spec`), so each cell is validated
exactly like an HTTP submission and carries the same content hash the
result cache is keyed by.  A cell whose static cost evaluation breaks
the budget is marked pruned at expansion time and never simulated.

Every validation failure raises :class:`SweepSpecError` (a
:class:`~repro.service.hashing.SpecError`, i.e. HTTP 400 material)
naming the axis or cell at fault.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, List, Optional

from ..arch.io import config_field_names
from ..core.errors import SimConfigError
from ..service.hashing import (ResolvedSpec, SpecError, canonical_json,
                               hash_canonical, resolve_spec)
from .models import (CostModel, SystemBudget, resolve_budget,
                     resolve_cost_model, resolve_objectives)

#: Sweep-spec schema version (bumped on incompatible layout changes).
SWEEP_SCHEMA = 1

#: Hard expansion cap: a typo'd axis must not OOM the host.
MAX_CELLS = 4096

#: Keys a sweep spec may carry at the top level.
SWEEP_KEYS = frozenset({"name", "base", "axes", "budget", "cost_model",
                        "objectives"})

#: Arch-section keys that are not ArchConfig fields but are legal in a
#: spec's arch object (consumed by the preset factories).
_ARCH_EXTRA_KEYS = frozenset({"preset"})

#: Workload identity fields a workload axis may vary.
_WORKLOAD_KEYS = frozenset({"benchmark", "scale", "seed", "root_core"})


class SweepSpecError(SpecError):
    """A sweep spec failed validation (HTTP 400 material)."""


@dataclasses.dataclass
class SweepCell:
    """One fully-resolved point of the sweep space.

    ``index`` is the cell's position in deterministic expansion order
    (the result frame is ordered by it regardless of completion order);
    ``params`` maps each axis name to this cell's value; ``spec`` is the
    resolved run spec whose ``spec_hash`` identifies the cell in the
    result cache; ``cost`` is the static cost evaluation and
    ``violations`` the budget breaches (non-empty == pruned).
    """

    index: int
    params: Dict[str, Any]
    spec: ResolvedSpec
    cost: Dict[str, Any]
    violations: List[str]

    @property
    def pruned(self) -> bool:
        return bool(self.violations)


@dataclasses.dataclass
class SweepPlan:
    """An expanded, validated sweep: cells plus the models that shaped it."""

    name: str
    axes: Dict[str, List[Any]]          # sorted axis name -> values
    cells: List[SweepCell]
    budget: SystemBudget
    cost_model: CostModel
    objectives: List[str]
    sweep_hash: str

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def short_id(self) -> str:
        return self.sweep_hash[:12]

    def feasible_cells(self) -> List[SweepCell]:
        """The cells that survived budget pruning, in index order."""
        return [c for c in self.cells if not c.pruned]


def _check_axes(axes: Any) -> Dict[str, List[Any]]:
    """Validate the axes mapping; returns it with sorted names."""
    if not isinstance(axes, dict) or not axes:
        raise SweepSpecError("'axes' must be a non-empty JSON object "
                             "mapping dotted field names to value lists")
    arch_fields = config_field_names() | _ARCH_EXTRA_KEYS
    out: Dict[str, List[Any]] = {}
    for name in sorted(axes):
        section, _, field = name.partition(".")
        if section == "arch" and field in arch_fields:
            pass
        elif section == "workload" and field in _WORKLOAD_KEYS:
            pass
        else:
            raise SweepSpecError(
                f"unknown sweep axis {name!r}: use 'arch.<field>' with a "
                f"real ArchConfig field (or 'arch.preset') or "
                f"'workload.<field>' with one of "
                f"{sorted(_WORKLOAD_KEYS)}")
        values = axes[name]
        if not isinstance(values, list) or not values:
            raise SweepSpecError(
                f"axis {name!r} must list at least one value, "
                f"got {values!r}")
        if any(isinstance(v, (dict, list)) for v in values):
            raise SweepSpecError(
                f"axis {name!r} values must be JSON scalars")
        if len(set(map(repr, values))) != len(values):
            raise SweepSpecError(f"axis {name!r} repeats a value")
        out[name] = list(values)
    return out


def _cell_raw_spec(base: Dict[str, Any],
                   params: Dict[str, Any]) -> Dict[str, Any]:
    """The raw (service-shaped) run spec of one cell: base + overrides."""
    arch = dict(base.get("arch") or {})
    workload = dict(base.get("workload") or {})
    for name, value in params.items():
        section, _, field = name.partition(".")
        (arch if section == "arch" else workload)[field] = value
    # Execution options are fixed for sweep cells: never waited on at
    # submission, no per-cell telemetry — keeps the per-cell document a
    # pure function of the semantic spec.
    return {"arch": arch, "workload": workload,
            "options": {"telemetry": None}}


def expand_sweep(payload: Any) -> SweepPlan:
    """Validate a sweep spec and expand it into a :class:`SweepPlan`.

    Cells are ordered by the cartesian product of the axes (axis names
    sorted, values in declared order); each cell's run spec resolves
    through :func:`repro.service.hashing.resolve_spec` so invalid
    combinations fail *here*, naming the cell, never inside a worker.

    Example::

        from repro.dse import expand_sweep
        plan = expand_sweep({
            "base": {"workload": {"benchmark": "quicksort",
                                  "scale": "tiny"}},
            "axes": {"arch.n_cores": [9, 16]},
        })
        assert plan.n_cells == 2
        assert plan.cells[0].spec.cfg.n_cores == 9
    """
    if not isinstance(payload, dict):
        raise SweepSpecError("sweep spec must be a JSON object")
    unknown = set(payload) - SWEEP_KEYS
    if unknown:
        raise SweepSpecError(f"unknown sweep key(s): {sorted(unknown)}; "
                             f"expected a subset of {sorted(SWEEP_KEYS)}")
    base = payload.get("base") or {}
    if not isinstance(base, dict):
        raise SweepSpecError("'base' must be a JSON object with 'arch' "
                             "and 'workload' sections")
    extra = set(base) - {"arch", "workload"}
    if extra:
        raise SweepSpecError(f"unknown base section(s): {sorted(extra)}; "
                             "a sweep base holds 'arch' and 'workload' only")
    axes = _check_axes(payload.get("axes"))
    try:
        budget = resolve_budget(payload.get("budget"))
        cost_model = resolve_cost_model(payload.get("cost_model"))
        objectives = resolve_objectives(payload.get("objectives"))
    except SimConfigError as exc:
        raise SweepSpecError(str(exc)) from exc
    name = payload.get("name") or "sweep"
    if not isinstance(name, str):
        raise SweepSpecError(f"'name' must be a string, got {name!r}")

    n_cells = 1
    for values in axes.values():
        n_cells *= len(values)
    if n_cells > MAX_CELLS:
        raise SweepSpecError(f"sweep expands to {n_cells} cells, more "
                             f"than the {MAX_CELLS}-cell cap")

    cells: List[SweepCell] = []
    names = list(axes)
    for index, combo in enumerate(
            itertools.product(*(axes[n] for n in names))):
        params = dict(zip(names, combo))
        try:
            spec = resolve_spec(_cell_raw_spec(base, params))
        except SpecError as exc:
            raise SweepSpecError(f"cell {index} {params}: {exc}") from exc
        cost = cost_model.evaluate(spec.cfg)
        cells.append(SweepCell(index=index, params=params, spec=spec,
                               cost=cost,
                               violations=budget.violations(cost, spec.cfg)))

    sweep_hash = hash_canonical({
        "schema": SWEEP_SCHEMA,
        "cells": [c.spec.spec_hash for c in cells],
        "budget": dataclasses.asdict(budget),
        "cost_model": dataclasses.asdict(cost_model),
        "objectives": objectives,
    })
    return SweepPlan(name=name, axes=axes, cells=cells, budget=budget,
                     cost_model=cost_model, objectives=objectives,
                     sweep_hash=sweep_hash)


def sweep_summary(plan: SweepPlan) -> Dict[str, Any]:
    """JSON-safe description of an expanded sweep (no per-cell specs)."""
    return {
        "schema": SWEEP_SCHEMA,
        "name": plan.name,
        "sweep_hash": plan.sweep_hash,
        "axes": {k: list(v) for k, v in plan.axes.items()},
        "n_cells": plan.n_cells,
        "n_pruned": sum(1 for c in plan.cells if c.pruned),
        "budget": dataclasses.asdict(plan.budget),
        "cost_model": dataclasses.asdict(plan.cost_model),
        "objectives": list(plan.objectives),
    }


def load_sweep_spec(path: str) -> Dict[str, Any]:
    """Read a sweep spec file (JSON) without expanding it."""
    import json
    import pathlib

    try:
        text = pathlib.Path(path).read_text()
    except OSError as exc:
        raise SweepSpecError(f"cannot read sweep spec {path!r}: {exc}")
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise SweepSpecError(f"invalid JSON in sweep spec {path!r}: {exc}")
    return payload


__all__ = ["MAX_CELLS", "SWEEP_SCHEMA", "SweepCell", "SweepPlan",
           "SweepSpecError", "canonical_json", "expand_sweep",
           "load_sweep_spec", "sweep_summary"]
