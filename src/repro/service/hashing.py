"""Run-spec resolution, canonicalization and content hashing.

A service request describes one simulation as JSON::

    {
      "arch":     {"preset": "shared_mesh", "n_cores": 16, "sync": "spatial"},
      "workload": {"benchmark": "quicksort", "scale": "tiny", "seed": 0},
      "options":  {"wait": true, "timeout_s": 120, "digest": true}
    }

:func:`resolve_spec` validates that against the real configuration
machinery (presets + :class:`~repro.arch.ArchConfig` field validation —
a bad spec fails here with a structured error, never inside a worker)
and produces a :class:`ResolvedSpec` whose **content hash** keys the
result cache:

* the ``arch`` section resolves to a full ``ArchConfig`` and is reduced
  to its semantic fields by
  :func:`repro.arch.io.config_canonical_dict` (non-semantic knobs —
  telemetry, sanitizer, label, worker start method — are excluded; see
  :data:`repro.arch.io.NON_SEMANTIC_FIELDS` for the proof obligations);
* the ``workload`` section is normalized to its four identity fields
  (``benchmark``, ``scale``, ``seed``, ``root_core``; ``memory`` is
  derived from the arch config, exactly as the CLI derives it);
* the ``options`` section never enters the hash — waiting, timeouts and
  digest collection do not change what is simulated.

The canonical form is serialized with sorted keys and compact
separators (:func:`canonical_json`), so the hash is independent of the
JSON field ordering the client happened to use.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Optional

from ..arch import (
    ArchConfig,
    clustered_dist,
    dist_mesh,
    numa_mesh,
    polymorphic_dist,
    polymorphic_shared,
    shared_mesh,
    single_core,
)
from ..arch.io import config_canonical_dict, config_field_names
from ..core.errors import SimConfigError
from ..workloads import BENCHMARKS, SCALE_PARAMS

#: Canonical-spec schema version; bumped on incompatible layout changes
#: (a bump invalidates every cache entry, which is the safe direction).
SPEC_SCHEMA = 1

#: Arch presets a spec may name; each maps to the factory in
#: ``repro.arch.presets`` and receives ``n_cores`` (plus ``n_clusters``
#: for the clustered preset) before the remaining overrides apply.
PRESETS = {
    "single_core": single_core,
    "shared_mesh": shared_mesh,
    "dist_mesh": dist_mesh,
    "numa_mesh": numa_mesh,
    "clustered_dist": clustered_dist,
    "polymorphic_shared": polymorphic_shared,
    "polymorphic_dist": polymorphic_dist,
}

#: Recognized ``options`` keys (everything else is rejected so typos
#: fail loudly instead of silently doing nothing).
OPTION_KEYS = frozenset({"wait", "timeout_s", "digest", "telemetry",
                         "checkpoint_every"})


class SpecError(ValueError):
    """An incoming run spec failed validation (HTTP 400 material)."""


@dataclasses.dataclass
class ResolvedSpec:
    """A fully-resolved, validated run spec with a stable identity.

    ``cfg`` is the concrete :class:`ArchConfig` the job will run;
    ``workload`` holds the normalized workload identity fields;
    ``options`` carries execution options (never hashed).  ``canonical``
    and ``spec_hash`` are derived once at construction; ``short_id``
    (first 12 hex digits) is the human-facing job/result label.
    """

    cfg: ArchConfig
    workload: Dict[str, Any]
    options: Dict[str, Any]
    canonical: Dict[str, Any] = dataclasses.field(default=None)  # type: ignore[assignment]
    spec_hash: str = ""

    def __post_init__(self) -> None:
        if self.canonical is None:
            self.canonical = canonical_spec(self.cfg, self.workload)
        if not self.spec_hash:
            self.spec_hash = hash_canonical(self.canonical)

    @property
    def short_id(self) -> str:
        return self.spec_hash[:12]


def canonical_spec(cfg: ArchConfig, workload: Dict[str, Any]) -> Dict[str, Any]:
    """The canonical (hashed) form of one run spec.

    Plain-JSON dict of the semantic arch fields plus the workload
    identity; structurally equal for semantically identical requests.
    """
    return {
        "schema": SPEC_SCHEMA,
        "arch": config_canonical_dict(cfg),
        "workload": {
            "benchmark": workload["benchmark"],
            "scale": workload["scale"],
            "seed": workload["seed"],
            "root_core": workload["root_core"],
        },
    }


def canonical_json(spec: Dict[str, Any]) -> str:
    """Serialize a canonical spec deterministically (sorted keys,
    compact separators) — the byte stream the content hash covers."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def hash_canonical(spec: Dict[str, Any]) -> str:
    """sha256 hex digest of a canonical spec dict."""
    return hashlib.sha256(canonical_json(spec).encode()).hexdigest()


def spec_hash(cfg: ArchConfig, workload: Dict[str, Any]) -> str:
    """Content hash of one (arch config, workload) pair.

    Convenience composition of :func:`canonical_spec` and
    :func:`hash_canonical`; what the result cache is keyed by.
    """
    return hash_canonical(canonical_spec(cfg, workload))


# -- request resolution ------------------------------------------------------

#: Expected JSON type for each ArchConfig field with a scalar default,
#: derived from the dataclass itself so new fields are covered for free.
#: ``ArchConfig.__post_init__`` validates *values* (enums, ranges) but
#: not *types*, so without this a spec like ``{"drift_bound": "fast"}``
#: would be accepted at submission and only explode inside a worker.
_ARCH_FIELD_TYPES: Dict[str, type] = {
    f.name: type(f.default)
    for f in dataclasses.fields(ArchConfig)
    if f.default is not dataclasses.MISSING and f.default is not None
}


def _check_arch_field_types(payload: Dict[str, Any]) -> None:
    """Reject arch overrides whose JSON type cannot be the field's."""
    for key, value in payload.items():
        expected = _ARCH_FIELD_TYPES.get(key)
        if expected is None or value is None:
            continue
        if expected is bool:
            ok = isinstance(value, bool)
        elif expected is float:
            ok = (isinstance(value, (int, float))
                  and not isinstance(value, bool))
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif expected is str:
            ok = isinstance(value, str)
        else:
            ok = isinstance(value, expected)
        if not ok:
            raise SpecError(
                f"arch field {key!r} must be a {expected.__name__}, "
                f"got {value!r}")


def _resolve_arch(payload: Optional[Dict[str, Any]]) -> ArchConfig:
    """Build the ArchConfig an ``arch`` section describes.

    With a ``preset`` key the named factory runs first and the remaining
    keys apply as overrides (every override re-validates through
    ``ArchConfig.__post_init__``); without one the keys must be plain
    ``ArchConfig`` fields.  Unknown keys are rejected by name.
    """
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise SpecError("'arch' must be a JSON object")
    payload = dict(payload)  # never mutate the caller's request
    preset = payload.pop("preset", None)
    unknown = set(payload) - config_field_names()
    if unknown:
        raise SpecError(f"unknown arch field(s): {sorted(unknown)}")
    _check_arch_field_types(payload)
    try:
        if preset is None:
            return ArchConfig(**payload)
        if preset not in PRESETS:
            raise SpecError(
                f"unknown arch preset {preset!r}; "
                f"choose from {sorted(PRESETS)}")
        factory = PRESETS[preset]
        kwargs = {}
        if preset != "single_core":
            kwargs["n_cores"] = payload.pop("n_cores", 64)
        if preset == "clustered_dist":
            kwargs["n_clusters"] = payload.pop("n_clusters", 4)
        cfg = factory(**kwargs)
        return dataclasses.replace(cfg, **payload) if payload else cfg
    except SimConfigError as exc:
        raise SpecError(str(exc)) from exc
    except TypeError as exc:
        raise SpecError(f"invalid arch section: {exc}") from exc


def _resolve_workload(payload: Any, cfg: ArchConfig) -> Dict[str, Any]:
    """Normalize and validate the ``workload`` section.

    ``memory`` is not accepted: the workload build always follows the
    arch config's memory organization (as ``python -m repro run`` does),
    so a spec cannot describe an inconsistent pair.
    """
    if not isinstance(payload, dict):
        raise SpecError("'workload' must be a JSON object")
    payload = dict(payload)
    benchmark = payload.pop("benchmark", None)
    if benchmark not in BENCHMARKS:
        raise SpecError(
            f"unknown benchmark {benchmark!r}; choose from {list(BENCHMARKS)}")
    scale = payload.pop("scale", "small")
    if scale not in SCALE_PARAMS:
        raise SpecError(
            f"unknown scale {scale!r}; choose from {list(SCALE_PARAMS)}")
    seed = payload.pop("seed", 0)
    root_core = payload.pop("root_core", 0)
    if payload:
        raise SpecError(f"unknown workload field(s): {sorted(payload)} "
                        "(note: 'memory' is derived from the arch config)")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecError(f"workload seed must be an integer, got {seed!r}")
    if not isinstance(root_core, int) or isinstance(root_core, bool):
        raise SpecError(f"root_core must be an integer, got {root_core!r}")
    if not 0 <= root_core < cfg.n_cores:
        raise SpecError(
            f"root_core {root_core} out of range for {cfg.n_cores} cores")
    return {"benchmark": benchmark, "scale": scale, "seed": seed,
            "root_core": root_core, "memory": cfg.memory}


def _resolve_options(payload: Any) -> Dict[str, Any]:
    """Normalize the ``options`` section (execution knobs, never hashed)."""
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise SpecError("'options' must be a JSON object")
    unknown = set(payload) - OPTION_KEYS
    if unknown:
        raise SpecError(f"unknown option(s): {sorted(unknown)}; "
                        f"valid options: {sorted(OPTION_KEYS)}")
    options = {
        "wait": bool(payload.get("wait", False)),
        "timeout_s": payload.get("timeout_s"),
        "digest": bool(payload.get("digest", True)),
        "telemetry": payload.get("telemetry", "counters"),
        "checkpoint_every": payload.get("checkpoint_every"),
    }
    timeout = options["timeout_s"]
    if timeout is not None and (not isinstance(timeout, (int, float))
                                or isinstance(timeout, bool)
                                or timeout <= 0):
        raise SpecError(f"timeout_s must be a positive number, got {timeout!r}")
    every = options["checkpoint_every"]
    if every is not None and (not isinstance(every, (int, float))
                              or isinstance(every, bool) or every <= 0):
        raise SpecError("checkpoint_every must be a positive number "
                        f"(virtual-time cycles), got {every!r}")
    return options


def resolve_spec(payload: Any) -> ResolvedSpec:
    """Validate a raw request body and resolve it into a ResolvedSpec.

    Raises :class:`SpecError` with a client-actionable message on any
    malformed, unknown or inconsistent field — the API layer maps that
    to a structured HTTP 400.

    Example::

        from repro.service import resolve_spec
        spec = resolve_spec({
            "arch": {"preset": "shared_mesh", "n_cores": 9},
            "workload": {"benchmark": "quicksort", "scale": "tiny"},
        })
        assert len(spec.spec_hash) == 64
    """
    if not isinstance(payload, dict):
        raise SpecError("run spec must be a JSON object")
    unknown = set(payload) - {"arch", "workload", "options"}
    if unknown:
        raise SpecError(f"unknown top-level key(s): {sorted(unknown)}; "
                        "expected 'arch', 'workload', 'options'")
    if "workload" not in payload:
        raise SpecError("run spec needs a 'workload' section")
    cfg = _resolve_arch(payload.get("arch"))
    workload = _resolve_workload(payload["workload"], cfg)
    options = _resolve_options(payload.get("options"))
    return ResolvedSpec(cfg=cfg, workload=workload, options=options)
