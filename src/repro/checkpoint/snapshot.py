"""Snapshot container: config + workloads + boundary + captured state.

A :class:`Snapshot` is everything a restore needs to continue a run:

* the full :class:`~repro.arch.config.ArchConfig` the run was built
  from, so a restore needs nothing but the file;
* the resolved :class:`~repro.parallel.channels.WorkloadSpec` list
  (workload factories are deterministic in their spec, so the rebuilt
  roots are identical);
* the boundary — the virtual time the capture was taken at, on either
  backend (``{"kind": "vtime", "value": k}``);
* one machine-state capture per shard (exactly one for serial), each
  with a bit-exact ``det`` section and an informational ``host``
  section (see ``repro.checkpoint.state``).

Snapshots serialize through the canonical codec
(``repro.checkpoint.codec``) with atomic writes and a verified content
hash; :func:`load_snapshot` refuses corrupt or version-mismatched
files and structurally invalid payloads.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from ..arch.config import ArchConfig
from ..parallel.channels import WorkloadSpec
from .codec import (CheckpointCorruptError, content_hash,
                    read_snapshot_file, write_snapshot_file)

#: ``kind`` values a snapshot may carry.
KINDS = ("serial", "sharded")


@dataclasses.dataclass
class Snapshot:
    """In-memory snapshot of a run at a boundary."""

    kind: str                      # "serial" | "sharded"
    config: Dict[str, Any]         # full ArchConfig as a plain dict
    workloads: List[Dict[str, Any]]  # WorkloadSpec fields per root
    boundary: Dict[str, Any]       # {"kind": "vtime", "value": k}
    states: List[Dict[str, Any]]   # one capture per shard (serial: one)
    note: str = ""                 # free-form provenance (spec hash, ...)

    @property
    def state_hash(self) -> str:
        """Content hash over every shard's deterministic section."""
        return content_hash([s["det"] for s in self.states])

    def rebuild_config(self) -> ArchConfig:
        return ArchConfig(**self.config)

    def rebuild_workloads(self) -> List[WorkloadSpec]:
        return [WorkloadSpec(**dict(w, kwargs=dict(w["kwargs"])))
                for w in self.workloads]


def make_snapshot(kind: str, cfg: ArchConfig,
                  specs: List[WorkloadSpec],
                  boundary: Dict[str, Any],
                  states: List[Dict[str, Any]],
                  note: str = "") -> Snapshot:
    """Build a snapshot from live objects (no file involved yet)."""
    config = dataclasses.asdict(cfg)
    if config.get("speed_factors") is not None:
        config["speed_factors"] = [float(f) for f in config["speed_factors"]]
    workloads = [dataclasses.asdict(spec) for spec in specs]
    return Snapshot(kind=kind, config=config, workloads=workloads,
                    boundary=dict(boundary), states=list(states), note=note)


def save_snapshot(snap: Snapshot, path: str) -> str:
    """Atomically write ``snap`` to ``path``; return the content hash."""
    payload = {
        "kind": snap.kind,
        "config": snap.config,
        "workloads": snap.workloads,
        "boundary": snap.boundary,
        "states": snap.states,
        "note": snap.note,
    }
    return write_snapshot_file(path, payload)


def load_snapshot(path: str) -> Snapshot:
    """Read, verify and structurally validate a snapshot file."""
    payload = read_snapshot_file(path)
    if not isinstance(payload, dict):
        raise CheckpointCorruptError(f"{path}: payload is not a mapping")
    missing = {"kind", "config", "workloads", "boundary",
               "states"} - set(payload)
    if missing:
        raise CheckpointCorruptError(
            f"{path}: snapshot payload lacks {sorted(missing)}")
    if payload["kind"] not in KINDS:
        raise CheckpointCorruptError(
            f"{path}: unknown snapshot kind {payload['kind']!r}")
    boundary = payload["boundary"]
    if (not isinstance(boundary, dict)
            or boundary.get("kind") != "vtime"
            or not isinstance(boundary.get("value"), (int, float))):
        raise CheckpointCorruptError(f"{path}: malformed boundary")
    states = payload["states"]
    if (not isinstance(states, list) or not states
            or not all(isinstance(s, dict) and "det" in s for s in states)):
        raise CheckpointCorruptError(f"{path}: malformed state captures")
    return Snapshot(kind=payload["kind"], config=payload["config"],
                    workloads=payload["workloads"], boundary=boundary,
                    states=states, note=payload.get("note", ""))
