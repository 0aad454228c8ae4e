"""Simulator error types."""

from __future__ import annotations


class SimError(Exception):
    """Base class for simulator errors."""


class SimDeadlock(SimError):
    """The simulation cannot make progress.

    Spatial synchronization by itself never deadlocks (the task with lowest
    virtual time can always progress — paper, Section II-B); reaching this
    state indicates a program-level deadlock or an engine misuse, and the
    exception carries diagnostics to tell them apart.
    """

    def __init__(self, message: str, diagnostics: dict | None = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SimConfigError(SimError):
    """Invalid architecture or engine configuration."""


class SimTimeout(SimError):
    """A run spent the wall-clock budget its caller gave it
    (``run_workloads(timeout=...)``) before completing."""


class ShardBoundaryError(SimError):
    """A run-time protocol message tried to cross a shard boundary.

    With ``ArchConfig.shards > 0`` the dispatcher, work stealing and
    memory placement are fenced to shard-local cores, so only USER
    messages (explicit ``ctx.send``) may cross.  Anything else carries
    live engine objects (tasks, locks, cells) that cannot be shipped
    between worker processes; reaching this error means the fence has a
    hole and the run cannot be bit-identical across backends.
    """


class ProtocolError(SimError):
    """A task violated the programming-model protocol (e.g. double release)."""


class SanitizerViolation(SimError):
    """A runtime invariant check (``ArchConfig.sanitize``) failed.

    Carries structured context so violations crossing a worker-process
    boundary survive as data: the check that fired, the core involved,
    the virtual times on both sides of the comparison, and a free-form
    ``details`` dict describing the offending event.  All fields are
    plain picklable values.
    """

    def __init__(self, check: str, message: str, *, core: int | None = None,
                 vtime: float | None = None, bound: float | None = None,
                 details: dict | None = None) -> None:
        super().__init__(f"[sanitize:{check}] {message}")
        self.check = check
        self.core = core
        self.vtime = vtime
        self.bound = bound
        self.details = details or {}


class TaskError(SimError):
    """Simulated program code raised an exception.

    Wraps the original exception with simulation context (task, core,
    virtual time); the original is available as ``__cause__``.
    """

    def __init__(self, message: str, task=None, core: int | None = None,
                 vtime: float | None = None) -> None:
        super().__init__(message)
        self.task = task
        self.core = core
        self.vtime = vtime
