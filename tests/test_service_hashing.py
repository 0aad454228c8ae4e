"""Cache-identity semantics: what is, and is not, in the spec hash.

The content hash decides when a cached result may be served instead of
re-simulating, so these tests pin its contract from both sides:
semantically identical specs (field reordering, observation-only knobs)
must collide, and anything the simulator treats as semantic (drift
bound, sync policy, shard fences, workload identity) must separate.
"""

import dataclasses

import pytest

from repro.arch import ArchConfig, dist_mesh, shared_mesh
from repro.arch.io import (NON_SEMANTIC_FIELDS, config_canonical_dict,
                           config_content_hash)
from repro.dse import SweepSpecError, expand_sweep
from repro.service import SpecError, canonical_json, resolve_spec, spec_hash


def _hash_of(payload):
    return resolve_spec(payload).spec_hash


BASE = {
    "arch": {"preset": "shared_mesh", "n_cores": 16, "drift_bound": 100.0},
    "workload": {"benchmark": "quicksort", "scale": "tiny", "seed": 0},
}


class TestConfigIdentity:
    def test_field_set_is_complete(self):
        """Every ArchConfig field is either hashed or explicitly waived —
        a new field added without a decision fails here."""
        fields = {f.name for f in dataclasses.fields(ArchConfig)}
        assert NON_SEMANTIC_FIELDS <= fields
        assert set(config_canonical_dict(ArchConfig())) == \
            fields - NON_SEMANTIC_FIELDS

    def test_hashes_survive_non_semantic_field_removal(self):
        """Literal pins: dropping a non-semantic field (as the
        kernel-selection and inbox-toggle fields were) must not orphan
        any on-disk result store.  Removing a semantic field does move
        them — they were re-taken when the round protocol's window and
        batch settings left ArchConfig, so an older store re-simulates."""
        assert config_content_hash(shared_mesh(64)) == (
            "6b702a433bed2fe4cc35d00f537473e856f83c0427c28343f6726053b93c36cc")
        assert config_content_hash(dist_mesh(64)) == (
            "9b2a3be009be91b9ad0a6ee588dcb64450d020e15c1bac22137a3840935c39ab")

    def test_label_is_not_semantic(self):
        a = shared_mesh(16)
        b = dataclasses.replace(a, name="anything-else")
        assert config_content_hash(a) == config_content_hash(b)

    @pytest.mark.parametrize("field,value", [
        ("telemetry", "all"),
        ("sanitize", True),
        ("collect_trace", True),
    ])
    def test_non_semantic_fields_do_not_change_hash(self, field, value):
        a = shared_mesh(16)
        b = dataclasses.replace(a, **{field: value})
        assert config_content_hash(a) == config_content_hash(b)

    @pytest.mark.parametrize("field,value", [
        ("drift_bound", 50.0),
        ("sync", "conservative"),
        ("n_cores", 25),
        ("memory", "distributed"),
        ("shards", 4),
        ("dispatch", "random"),
        ("seed", 7),
        ("work_stealing", True),
    ])
    def test_semantic_fields_change_hash(self, field, value):
        a = shared_mesh(16)
        b = dataclasses.replace(a, **{field: value})
        assert config_content_hash(a) != config_content_hash(b)

    def test_backend_is_semantic(self):
        """Serial vs sharded trajectories may legitimately differ for
        runs with cross-shard traffic (two-tier fuzzer contract), so the
        backend must separate cache entries."""
        a = dataclasses.replace(shared_mesh(16), shards=4)
        b = dataclasses.replace(a, backend="sharded")
        assert config_content_hash(a) != config_content_hash(b)


class TestSpecHash:
    def test_stable_across_field_ordering(self):
        reordered = {
            "workload": {"seed": 0, "scale": "tiny", "benchmark": "quicksort"},
            "arch": {"drift_bound": 100.0, "n_cores": 16,
                     "preset": "shared_mesh"},
        }
        assert _hash_of(BASE) == _hash_of(reordered)

    def test_options_never_hashed(self):
        with_options = dict(BASE, options={"wait": True, "timeout_s": 5,
                                           "telemetry": "all",
                                           "checkpoint_every": 500.0})
        assert _hash_of(BASE) == _hash_of(with_options)

    def test_spec_schema_pin(self):
        """Literal pin of a whole spec hash.  Schema 2 moved every spec
        hash (schema 1 gave ``c24250d1...``): stores written before every
        document carried the packed-trace digest re-simulate instead of
        serving a document with an old-form digest, or none."""
        assert resolve_spec(BASE).canonical["schema"] == 2
        assert _hash_of(BASE) == (
            "7ce73b5ac6bab4a190d3737969192dc56b0f19bbb162acb93bf621159a3ea002")

    def test_defaults_are_explicit(self):
        """Omitting a field and stating its default hash identically."""
        explicit = {
            "arch": dict(BASE["arch"], sync="spatial"),
            "workload": dict(BASE["workload"], root_core=0),
        }
        assert _hash_of(BASE) == _hash_of(explicit)

    @pytest.mark.parametrize("change", [
        {"arch": {"preset": "shared_mesh", "n_cores": 16,
                  "drift_bound": 200.0}},
        {"arch": {"preset": "shared_mesh", "n_cores": 16, "drift_bound": 100.0,
                  "sync": "quantum"}},
        {"workload": {"benchmark": "dijkstra", "scale": "tiny", "seed": 0}},
        {"workload": {"benchmark": "quicksort", "scale": "small", "seed": 0}},
        {"workload": {"benchmark": "quicksort", "scale": "tiny", "seed": 1}},
        {"workload": {"benchmark": "quicksort", "scale": "tiny", "seed": 0,
                      "root_core": 3}},
    ])
    def test_semantic_changes_separate(self, change):
        assert _hash_of(BASE) != _hash_of(dict(BASE, **change))

    def test_hash_matches_direct_composition(self):
        spec = resolve_spec(BASE)
        assert spec.spec_hash == spec_hash(spec.cfg, spec.workload)
        assert spec.short_id == spec.spec_hash[:12]
        assert len(spec.spec_hash) == 64

    def test_canonical_json_deterministic(self):
        a, b = resolve_spec(BASE), resolve_spec(BASE)
        assert canonical_json(a.canonical) == canonical_json(b.canonical)


class TestSpecValidation:
    @pytest.mark.parametrize("payload,fragment", [
        ("not a dict", "JSON object"),
        ({}, "workload"),
        ({"workload": {"benchmark": "nope"}}, "unknown benchmark"),
        ({"workload": {"benchmark": "quicksort", "scale": "huge"}},
         "unknown scale"),
        ({"workload": {"benchmark": "quicksort", "memory": "shared"}},
         "derived from the arch config"),
        ({"workload": {"benchmark": "quicksort", "seed": "zero"}},
         "seed must be an integer"),
        ({"workload": {"benchmark": "quicksort", "root_core": 99},
          "arch": {"n_cores": 8}}, "out of range"),
        ({"workload": {"benchmark": "quicksort"}, "arch": {"bogus": 1}},
         "unknown arch field"),
        ({"workload": {"benchmark": "quicksort"},
          "arch": {"preset": "warp_drive"}}, "unknown arch preset"),
        ({"workload": {"benchmark": "quicksort"},
          "arch": {"n_cores": 0}}, "at least one core"),
        ({"workload": {"benchmark": "quicksort"},
          "arch": {"backend": "sharded"}}, "shards"),
        ({"workload": {"benchmark": "quicksort"},
          "options": {"frobnicate": 1}}, "unknown option"),
        ({"workload": {"benchmark": "quicksort"},
          "options": {"timeout_s": -2}}, "positive"),
        ({"workload": {"benchmark": "quicksort"}, "extra": {}},
         "unknown top-level"),
    ])
    def test_rejects_with_actionable_message(self, payload, fragment):
        with pytest.raises(SpecError, match=fragment):
            resolve_spec(payload)

    @pytest.mark.parametrize("value", [True, False])
    def test_digest_option_is_retired(self, value):
        """Every document carries ``trace_digest``; naming the old
        opt-out (either way) is a structured 400 that says so."""
        with pytest.raises(SpecError, match="option 'digest' is retired"):
            resolve_spec(dict(BASE, options={"digest": value}))

    #: Arch sections only a machine build, or the run itself, would
    #: refuse: each would be a job that fails inside a worker.
    HOSTILE_ARCH = [
        {"sync": "nope"},
        {"dispatch": "nope"},
        {"drift_bound": 0.0},
        {"drift_bound": -1.0},
        {"slice_actions": 0},
        {"queue_capacity": 0},
        {"chunk_bytes": 0},
        {"sync_kwargs": "x"},
        {"sync_kwargs": {"bogus": 1}},
        {"dispatch_kwargs": {"bogus": 1}},
        {"n_cores": 4, "speed_factors": [1, 2]},
        {"n_cores": 4, "speed_factors": [1, 0, 1, 1]},
        {"n_cores": 4, "speed_factors": [1, "a", 2, 3]},
        {"parallelism_sample_interval": "x"},
        {"parallelism_sample_interval": 0},
        {"parallelism_sample_interval": -3},
    ]

    @pytest.mark.parametrize("arch", HOSTILE_ARCH)
    def test_hostile_arch_fails_at_resolution(self, arch):
        """Whatever building the machine would refuse is refused here,
        by the spec resolver and per sweep cell alike."""
        with pytest.raises(SpecError):
            resolve_spec({"workload": BASE["workload"], "arch": arch})
        with pytest.raises(SweepSpecError, match="cell 0"):
            expand_sweep({"base": {"workload": BASE["workload"],
                                   "arch": arch},
                          "axes": {"workload.seed": [0]}})

    #: Retired ArchConfig fields, spelled in pieces so a tree-wide grep
    #: for the old names stays empty.
    RETIRED_FIELDS = ("engine" "_kernel", "inbox" "_heap",
                      "adaptive" "_window", "window" "_max_factor",
                      "round" "_batch")

    @pytest.mark.parametrize("field", RETIRED_FIELDS)
    def test_retired_fields_are_unknown_not_type_errors(self, field):
        """Old clients naming a retired field get the structured 400 of
        any unknown field — from the spec resolver and the sweep-axis
        parser alike — never a TypeError out of ArchConfig(**...)."""
        with pytest.raises(SpecError, match="unknown arch field"):
            resolve_spec({"workload": {"benchmark": "quicksort"},
                          "arch": {field: True}})
        with pytest.raises(SweepSpecError, match="unknown sweep axis"):
            expand_sweep({"base": BASE, "axes": {f"arch.{field}": [True]}})

    def test_arch_section_optional(self):
        spec = resolve_spec({"workload": {"benchmark": "quicksort",
                                          "scale": "tiny"}})
        assert spec.cfg.n_cores == ArchConfig().n_cores

    def test_preset_overrides_revalidate(self):
        spec = resolve_spec({
            "arch": {"preset": "dist_mesh", "n_cores": 9, "sync": "quantum"},
            "workload": {"benchmark": "quicksort", "scale": "tiny"},
        })
        assert spec.cfg.memory == "distributed"
        assert spec.cfg.sync == "quantum"
        assert spec.workload["memory"] == "distributed"

    def test_request_payload_not_mutated(self):
        payload = dict(BASE, arch=dict(BASE["arch"]))
        resolve_spec(payload)
        assert payload["arch"] == BASE["arch"]
