"""Architecture configuration (paper, Section V).

An :class:`ArchConfig` captures everything the paper varies: core count and
per-core computing power (polymorphic architectures), memory organization
(shared with uniform latency, or fully distributed without hardware
coherence), network topology (regular/clustered 2D meshes or arbitrary
adjacency matrices), per-link latency and bandwidth, and the virtual-timing
parameters (the drift bound ``T``, run-time overheads).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..core.engine import EngineParams
from ..core.errors import SimConfigError
from ..core.fabric import SHADOW_MODES
from ..core.sync import make_policy
from ..runtime.dispatch import make_dispatch

#: Paper reference values.
DEFAULT_T = 100.0
SHARED_BANK_LATENCY = 10.0
L1_LATENCY = 1.0
L2_LATENCY = 10.0
BASE_LINK_LATENCY = 1.0
BASE_LINK_BANDWIDTH = 128.0
CLUSTER_INTER_LATENCY = 4.0
CLUSTER_INTRA_LATENCY = 0.5
#: Polymorphic architectures: one core out of two twice slower, the other
#: faster by 3/2 — identical cumulated computing power.
POLY_SLOW_FACTOR = 2.0
POLY_FAST_FACTOR = 2.0 / 3.0
#: Sync policies the sharded backend runs.  The others arbitrate through
#: *global* referee state (a total event order, a global quantum, ...)
#: that has no shard-local decomposition.
SHARDED_SYNC = ("spatial", "unbounded")


@dataclass
class ArchConfig:
    """Declarative architecture + simulator configuration."""

    name: str = "arch"
    n_cores: int = 8
    topology: str = "mesh"           # mesh | clustered | ring | torus | crossbar
    n_clusters: int = 4              # for the clustered topology
    memory: str = "shared"           # shared | distributed | numa
    coherence_enabled: bool = False  # charge coherence timings (validation)
    polymorphic: bool = False
    speed_factors: Optional[Sequence[float]] = None

    # Interconnect.
    link_latency: float = BASE_LINK_LATENCY
    link_bandwidth: float = BASE_LINK_BANDWIDTH
    inter_cluster_latency: float = CLUSTER_INTER_LATENCY
    intra_cluster_latency: float = CLUSTER_INTRA_LATENCY
    router_penalty: float = 1.0
    chunk_bytes: int = 64

    # Memory latencies.
    bank_latency: float = SHARED_BANK_LATENCY
    l1_latency: float = L1_LATENCY
    l2_latency: float = L2_LATENCY

    # Virtual timing.
    sync: str = "spatial"            # spatial | conservative | quantum | ...
    drift_bound: float = DEFAULT_T
    shadow: str = "fast"             # fast | exact | off (see core.fabric)

    # Run-time task dispatch: occupancy (paper default) | speed_aware |
    # latency_aware | random (see repro.runtime.dispatch).
    dispatch: str = "occupancy"
    #: Extension: idle cores pull NEW tasks from loaded neighbours
    #: (Cilk-style stealing; the paper's run-time only pushes).
    work_stealing: bool = False

    # Engine / run-time overheads (paper values).
    task_start_cycles: float = 10.0
    context_switch_cycles: float = 15.0
    queue_capacity: int = 4
    slice_actions: int = 64
    parallelism_sample_interval: Optional[int] = None  # None = no sampling

    # Timing annotations.
    branch_accuracy: float = 0.9
    branch_penalty: float = 5.0

    seed: int = 0

    # Sharded execution (repro.parallel).  ``shards > 0`` is a *semantic*
    # switch honoured by both backends: the mesh is split into that many
    # contiguous regions and the run-time fences dispatch, queue-state
    # gossip, steal victims and distributed-memory homes to the region
    # (USER messages may still cross).  ``backend`` then picks the
    # execution strategy — "serial" runs everything in-process,
    # "sharded" runs one worker process per shard; a fenced config
    # produces bit-identical results under either.
    backend: str = "serial"          # serial | sharded
    shards: int = 0                  # 0 = unfenced (single region)

    # Verification (repro.verify).  ``sanitize`` attaches the runtime
    # invariant checker to every machine the build produces (serial and
    # per-worker): drift-bound admission, causal/FIFO message delivery,
    # publish monotonicity, lock accounting and the sharded adopt/lift
    # protocol all assert continuously, raising SanitizerViolation on the
    # first breach.  Costs ~2x and changes no timing result.
    # ``collect_trace`` attaches a harness Tracer to every machine the
    # build produces (each shard worker's included); the finished run's
    # (merged) trace is ``backend.trace``, ready for canonical digesting.
    sanitize: bool = False
    collect_trace: bool = False

    # Observability (repro.obs).  Non-empty ``telemetry`` attaches the
    # structured-metrics registry to every machine the build produces
    # (serial and per-worker; snapshots merge coordinator-side like
    # stats do): "all" or a comma list of "counters", "timeline",
    # "profile".  Telemetry is observation-only — results stay
    # bit-identical with it on — and costs nothing when off beyond one
    # cached attribute check per hot-path guard.
    telemetry: str = ""

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise SimConfigError("need at least one core")
        if self.telemetry:
            from ..obs.registry import parse_spec

            try:
                parse_spec(self.telemetry)
            except ValueError as exc:
                raise SimConfigError(str(exc)) from None
        if self.memory not in ("shared", "distributed", "numa"):
            raise SimConfigError(f"unknown memory organization {self.memory!r}")
        if self.topology not in ("mesh", "clustered", "ring", "torus", "crossbar"):
            raise SimConfigError(f"unknown topology {self.topology!r}")
        if self.shadow not in SHADOW_MODES:
            raise SimConfigError(
                f"unknown shadow mode {self.shadow!r}; choose from "
                f"{list(SHADOW_MODES)}")
        if self.polymorphic and self.speed_factors is not None:
            raise SimConfigError("set either polymorphic or speed_factors")
        if self.backend not in ("serial", "sharded"):
            raise SimConfigError(f"unknown backend {self.backend!r}")
        if self.shards < 0 or self.shards > self.n_cores:
            raise SimConfigError(
                f"shards must be in [0, n_cores], got {self.shards}")
        if self.backend == "sharded":
            if self.shards < 1:
                raise SimConfigError(
                    "the sharded backend needs shards >= 1 "
                    "(e.g. --shards 4)")
            if self.sync not in SHARDED_SYNC:
                raise SimConfigError(
                    f"sharded backend supports sync policies "
                    f"{SHARDED_SYNC}, not {self.sync!r} (global-referee "
                    f"policies have no shard-local decomposition)")
            if self.shadow == "exact":
                raise SimConfigError(
                    "sharded backend does not support shadow='exact'; "
                    "exact mode needs a global recompute on every "
                    "transition")
        # Everything below is what building a machine would reject:
        # the factories and EngineParams apply their own rules here, so
        # a spec they refuse fails at submission, never inside a worker.
        try:
            if not self.drift_bound > 0:
                raise ValueError("drift bound T must be positive")
            if self.chunk_bytes < 1:
                raise ValueError("chunk size must be positive")
            make_policy(self.sync)
            make_dispatch(self.dispatch)
            self.engine_params()
            self.resolved_speed_factors()
        except (ValueError, TypeError) as exc:
            raise SimConfigError(str(exc)) from exc

    def engine_params(self) -> EngineParams:
        """The engine/run-time overheads this config describes."""
        return EngineParams(
            task_start_cycles=self.task_start_cycles,
            context_switch_cycles=self.context_switch_cycles,
            queue_capacity=self.queue_capacity,
            slice_actions=self.slice_actions,
            parallelism_sample_interval=self.parallelism_sample_interval,
        )

    def resolved_speed_factors(self) -> list:
        """Per-core speed factors (cost multipliers; >1 = slower)."""
        if self.speed_factors is not None:
            if len(self.speed_factors) != self.n_cores:
                raise SimConfigError("speed_factors length mismatch")
            factors = [float(f) for f in self.speed_factors]
            if not all(f > 0 for f in factors):
                raise SimConfigError("speed factors must be positive")
            return factors
        if self.polymorphic:
            return [
                POLY_SLOW_FACTOR if c % 2 == 0 else POLY_FAST_FACTOR
                for c in range(self.n_cores)
            ]
        return [1.0] * self.n_cores

    def with_cores(self, n_cores: int) -> "ArchConfig":
        """Copy of this config at a different scale."""
        return replace(self, n_cores=n_cores)

    def with_drift(self, T: float) -> "ArchConfig":
        """Copy with a different maximum local drift T."""
        return replace(self, drift_bound=T)
