"""Versioned run snapshots with verified-replay restore.

Public surface of the checkpoint subsystem:

* codec + errors (``encode``/``decode``, content hashes, atomic files);
* machine-state capture and bit-exact verification;
* the :class:`Snapshot` container with save/load;
* backend-agnostic run drivers (``run_straight``, ``run_checkpointed``,
  ``resume_run``, ``split_run``) over ``checkpoint_kwargs``, the one
  adapter from snapshots to the backends' ``run_workloads`` hooks.

See ``docs/checkpoint.md`` for the correctness contract.
"""

from .codec import (CHECKPOINT_VERSION, CheckpointCorruptError,
                    CheckpointError, CheckpointMismatchError,
                    CheckpointVersionError, content_hash, decode, encode,
                    read_snapshot_file, write_snapshot_file)
from .runner import (checkpoint_kwargs, resume_run, resume_serial,
                     run_checkpointed, run_serial_checkpointed,
                     run_straight, split_run)
from .snapshot import (Snapshot, load_snapshot, make_snapshot,
                       save_snapshot)
from .state import (capture_machine_state, state_hash,
                    verify_machine_state)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointVersionError",
    "Snapshot",
    "capture_machine_state",
    "checkpoint_kwargs",
    "content_hash",
    "decode",
    "encode",
    "load_snapshot",
    "make_snapshot",
    "read_snapshot_file",
    "resume_run",
    "resume_serial",
    "run_checkpointed",
    "run_serial_checkpointed",
    "run_straight",
    "save_snapshot",
    "split_run",
    "state_hash",
    "verify_machine_state",
    "write_snapshot_file",
]
