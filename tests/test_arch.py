"""Unit tests for architecture configuration, presets and the builder."""

import math

import pytest

from repro.arch import (
    ArchConfig,
    POLY_FAST_FACTOR,
    POLY_SLOW_FACTOR,
    build_machine,
    build_memory,
    build_topology,
    clustered_dist,
    dist_mesh,
    polymorphic_dist,
    polymorphic_shared,
    shared_mesh,
    shared_mesh_validation,
    single_core,
)
from repro.core.errors import SimConfigError
from repro.core.sync import ConservativeSync, SpatialSync
from repro.memory.distmem import DistributedMemoryModel
from repro.memory.sharedmem import SharedMemoryModel


class TestArchConfig:
    def test_defaults_match_paper(self):
        cfg = ArchConfig()
        assert cfg.drift_bound == 100.0
        assert cfg.bank_latency == 10.0
        assert cfg.l2_latency == 10.0
        assert cfg.link_latency == 1.0
        assert cfg.link_bandwidth == 128.0
        assert cfg.task_start_cycles == 10.0
        assert cfg.context_switch_cycles == 15.0
        assert cfg.branch_accuracy == 0.9
        assert cfg.branch_penalty == 5.0

    def test_invalid_memory(self):
        with pytest.raises(SimConfigError):
            ArchConfig(memory="quantum")

    def test_invalid_topology(self):
        with pytest.raises(SimConfigError):
            ArchConfig(topology="hypercube9000")

    def test_zero_cores(self):
        with pytest.raises(SimConfigError):
            ArchConfig(n_cores=0)

    def test_polymorphic_and_explicit_factors_conflict(self):
        with pytest.raises(SimConfigError):
            ArchConfig(polymorphic=True, speed_factors=[1.0] * 8)

    def test_polymorphic_factors(self):
        cfg = ArchConfig(n_cores=4, polymorphic=True)
        assert cfg.resolved_speed_factors() == [
            POLY_SLOW_FACTOR, POLY_FAST_FACTOR,
            POLY_SLOW_FACTOR, POLY_FAST_FACTOR,
        ]

    def test_polymorphic_preserves_computing_power(self):
        """1/slow + 1/fast per pair == 2 uniform cores' throughput."""
        throughput = 1.0 / POLY_SLOW_FACTOR + 1.0 / POLY_FAST_FACTOR
        assert throughput == pytest.approx(2.0)

    def test_with_cores_and_with_drift(self):
        cfg = shared_mesh(8)
        assert cfg.with_cores(64).n_cores == 64
        assert cfg.with_drift(500.0).drift_bound == 500.0
        assert cfg.n_cores == 8  # originals untouched

    def test_explicit_speed_factor_mismatch(self):
        with pytest.raises(SimConfigError):
            ArchConfig(n_cores=4, speed_factors=[1.0, 2.0])


class TestPresets:
    def test_shared_mesh(self):
        cfg = shared_mesh(64)
        assert cfg.memory == "shared"
        assert not cfg.coherence_enabled

    def test_validation_enables_coherence(self):
        assert shared_mesh_validation(16).coherence_enabled

    def test_dist_mesh(self):
        cfg = dist_mesh(64)
        assert cfg.memory == "distributed"

    def test_clustered(self):
        cfg = clustered_dist(64, 4)
        assert cfg.topology == "clustered"
        assert cfg.inter_cluster_latency == 4.0
        assert cfg.intra_cluster_latency == 0.5

    def test_polymorphic_single_core_uniform(self):
        cfg = polymorphic_shared(1)
        assert cfg.resolved_speed_factors() == [1.0]

    def test_single_core_preset(self):
        cfg = single_core()
        assert cfg.n_cores == 1


class TestBuilder:
    def test_topologies(self):
        for topo_name in ("mesh", "ring", "torus", "crossbar"):
            cfg = ArchConfig(n_cores=16, topology=topo_name)
            topo = build_topology(cfg)
            assert topo.n_cores == 16
            assert topo.is_connected()

    def test_clustered_topology(self):
        topo = build_topology(clustered_dist(16, 4))
        assert topo.is_connected()

    def test_memory_models(self):
        assert isinstance(build_memory(shared_mesh(4)), SharedMemoryModel)
        assert isinstance(build_memory(dist_mesh(4)), DistributedMemoryModel)

    def test_coherence_wired(self):
        assert build_memory(shared_mesh_validation(4)).coherence is not None
        assert build_memory(shared_mesh(4)).coherence is None

    def test_machine_assembled(self):
        machine = build_machine(shared_mesh(8))
        assert machine.n_cores == 8
        assert isinstance(machine.policy, SpatialSync)
        assert machine.memory is not None
        assert machine.runtime is not None

    def test_sync_selection(self):
        import dataclasses

        cfg = dataclasses.replace(shared_mesh(4), sync="conservative")
        machine = build_machine(cfg)
        assert isinstance(machine.policy, ConservativeSync)

    def test_polymorphic_machine_speed_factors(self):
        machine = build_machine(polymorphic_dist(4))
        assert machine.cores[0].speed_factor == POLY_SLOW_FACTOR
        assert machine.cores[1].speed_factor == POLY_FAST_FACTOR

    def test_drift_bound_propagates(self):
        machine = build_machine(shared_mesh(4).with_drift(250.0))
        assert machine.fabric.T == 250.0
