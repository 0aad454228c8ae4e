"""SiMany core: virtual time, spatial synchronization, simulation engine."""

from .actions import (
    Acquire,
    Action,
    CellAccess,
    Compute,
    Join,
    LocalTime,
    MemAccess,
    RecvMsg,
    Release,
    SendMsg,
    TrySpawn,
    YieldCpu,
)
from .coreunit import CoreUnit
from .engine import EngineParams, Machine
from .errors import (ProtocolError, SimConfigError, SimDeadlock, SimError,
                     SimTimeout)
from .fabric import VirtualTimeFabric
from .messages import DEFAULT_SIZES, Message, MsgKind
from .stats import SimStats, WallTimer
from .sync import (
    ActiveMinTracker,
    BoundedSlackSync,
    ConservativeSync,
    GlobalQuantumSync,
    LaxP2PSync,
    SpatialSync,
    SyncPolicy,
    UnboundedSync,
    make_policy,
)
from .task import Task, TaskContext, TaskGroup, TaskState

__all__ = [
    "Acquire",
    "Action",
    "ActiveMinTracker",
    "BoundedSlackSync",
    "CellAccess",
    "Compute",
    "ConservativeSync",
    "CoreUnit",
    "DEFAULT_SIZES",
    "EngineParams",
    "GlobalQuantumSync",
    "Join",
    "LaxP2PSync",
    "LocalTime",
    "Machine",
    "MemAccess",
    "Message",
    "MsgKind",
    "ProtocolError",
    "RecvMsg",
    "Release",
    "SendMsg",
    "SimConfigError",
    "SimDeadlock",
    "SimError",
    "SimStats",
    "SimTimeout",
    "SpatialSync",
    "SyncPolicy",
    "Task",
    "TaskContext",
    "TaskGroup",
    "TaskState",
    "TrySpawn",
    "UnboundedSync",
    "VirtualTimeFabric",
    "WallTimer",
    "YieldCpu",
    "make_policy",
]
