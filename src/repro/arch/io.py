"""Configuration file I/O and canonical config identity.

The paper specifies network topology "in a configuration file as an
adjacency matrix that gives the connections between the cores".  This
module round-trips both the full :class:`ArchConfig` (JSON) and raw
topologies (whitespace-separated adjacency matrices whose nonzero entries
are per-link latencies).

It also defines the **content identity** of a configuration
(:func:`config_canonical_dict` / :func:`config_content_hash`): a stable
sha256 over the *semantic* fields only, used by the service layer
(``repro.service``) to key its result cache.  Two configs share a hash
iff the simulator guarantees they produce bit-identical results — see
:data:`NON_SEMANTIC_FIELDS` for the exclusion list and its rationale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Union

import numpy as np

from .config import ArchConfig
from ..core.errors import SimConfigError
from ..network.topology import Topology, from_adjacency

PathLike = Union[str, pathlib.Path]


# -- ArchConfig JSON ---------------------------------------------------------

def config_to_json(cfg: ArchConfig) -> str:
    """Serialize a configuration to a JSON string."""
    payload = dataclasses.asdict(cfg)
    if payload.get("speed_factors") is not None:
        payload["speed_factors"] = list(payload["speed_factors"])
    return json.dumps(payload, indent=2, sort_keys=True)


def config_from_json(text: str) -> ArchConfig:
    """Parse a configuration from a JSON string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimConfigError(f"invalid config JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SimConfigError("config JSON must be an object")
    known = {f.name for f in dataclasses.fields(ArchConfig)}
    unknown = set(payload) - known
    if unknown:
        raise SimConfigError(f"unknown config keys: {sorted(unknown)}")
    return ArchConfig(**payload)


def save_config(cfg: ArchConfig, path: PathLike) -> None:
    """Write a configuration to a JSON file."""
    pathlib.Path(path).write_text(config_to_json(cfg) + "\n")


def load_config(path: PathLike) -> ArchConfig:
    """Read a configuration from a JSON file."""
    return config_from_json(pathlib.Path(path).read_text())


# -- canonical config identity ------------------------------------------------

def config_field_names() -> frozenset:
    """The set of :class:`ArchConfig` field names.

    The single source of truth for "is this a real config field?" checks
    outside the dataclass itself — the service spec resolver
    (:mod:`repro.service.hashing`) and the sweep-space validator
    (:mod:`repro.dse.space`) both reject unknown arch keys against this
    set, so a typo in a request or a sweep axis fails loudly with the
    same vocabulary everywhere.
    """
    return frozenset(f.name for f in dataclasses.fields(ArchConfig))


#: :class:`ArchConfig` fields excluded from the content hash.  A field
#: belongs here only when the verification subsystem *proves* it cannot
#: change simulation results:
#:
#: * ``name`` — a human-readable label, never consulted by the engine;
#: * ``telemetry`` / ``collect_trace`` / ``sanitize`` — observation-only;
#:   golden numbers and trace digests are pinned bit-identical with them
#:   on (``tests/test_obs.py``, ``tests/test_verify.py``).
#:
#: Everything else is semantic.  Note that ``backend`` and ``shards``
#: are deliberately *included*: shard fences change dispatch semantics, and
#: for runs with cross-shard traffic the sharded trajectory may
#: legitimately differ from serial (the fuzzer's two-tier conformance
#: contract, docs/testing.md) — so they must separate cache entries.
NON_SEMANTIC_FIELDS = frozenset({
    "name",
    "telemetry",
    "collect_trace",
    "sanitize",
})


def config_canonical_dict(cfg: ArchConfig) -> dict:
    """The semantic content of a configuration as a plain-JSON dict.

    Drops every :data:`NON_SEMANTIC_FIELDS` entry and normalizes
    container types (``speed_factors`` tuples become lists) so that two
    semantically identical configs — however they were constructed —
    produce structurally equal dicts.  Key order is irrelevant:
    :func:`config_content_hash` serializes with sorted keys.
    """
    payload = dataclasses.asdict(cfg)
    for name in NON_SEMANTIC_FIELDS:
        payload.pop(name, None)
    if payload.get("speed_factors") is not None:
        payload["speed_factors"] = [float(f) for f in payload["speed_factors"]]
    return payload


def config_content_hash(cfg: ArchConfig) -> str:
    """Stable sha256 hex digest of the semantic config content.

    Identical semantics give identical hashes regardless of field
    ordering or non-semantic settings; any change to a semantic field
    (drift bound, sync policy, topology, shard fences, ...) changes the
    hash.  The service result cache (``repro.service``) combines this
    with the workload identity to key cached simulation results.
    """
    text = json.dumps(config_canonical_dict(cfg), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- adjacency-matrix topology files ------------------------------------------

def save_topology(topo: Topology, path: PathLike) -> None:
    """Write a topology as an adjacency matrix (per-link latencies).

    The file holds one row per core; entry (i, j) is 0 when cores i and j
    are not connected, otherwise the link latency in cycles.
    """
    mat = np.zeros((topo.n_cores, topo.n_cores))
    for u, v, spec in topo.directed_edges():
        if spec.latency == 0:
            raise SimConfigError(
                "zero-latency links cannot be stored in the adjacency "
                "format (0 means no link)"
            )
        mat[u, v] = spec.latency
    lines = [f"# topology {topo.name}: {topo.n_cores} cores"]
    for row in mat:
        lines.append(" ".join(f"{x:g}" for x in row))
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def load_topology(path: PathLike, bandwidth: float = 128.0,
                  name: str = "") -> Topology:
    """Read a topology from an adjacency matrix file."""
    rows = []
    for line in pathlib.Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([float(x) for x in line.split()])
    if not rows:
        raise SimConfigError(f"no adjacency rows in {path}")
    widths = {len(r) for r in rows}
    if widths != {len(rows)}:
        raise SimConfigError("adjacency matrix must be square")
    return from_adjacency(rows, bandwidth=bandwidth,
                          name=name or pathlib.Path(path).stem)
