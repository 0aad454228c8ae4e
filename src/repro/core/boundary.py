"""The checkpoint boundary rule, one copy for both backends.

``run_workloads``'s checkpoint hooks mean the same on either backend.
With ``checkpoint_every`` the run stops at virtual times ``every``,
``2 * every``, ... and hands ``(boundary, states)`` to
``checkpoint_sink`` while work is still live; boundaries a segment
overshot are skipped, so every capture holds fresh progress.  With
``verify_at`` / ``verify_states`` the run is a *restore replay*: at
``verify_at`` its states must be bit-identical to the stored ones
(:class:`~repro.checkpoint.codec.CheckpointMismatchError` otherwise,
also when the run ends first), and it checkpoints only past it.  A
backend supplies its safe points (a ``stop_at_vtime`` return, a round
barrier) and its *frontier*, the largest virtual time any core reached.
"""

from __future__ import annotations

from typing import Callable, List, Optional


class BoundaryRule:
    """Where a run stops next for its checkpoint hooks, and what it does
    there.  ``per_shard`` prefixes a verification failure with the
    index of the shard whose state diverged."""

    def __init__(self, every: Optional[float],
                 sink: Optional[Callable[[float, List[dict]], None]],
                 verify_at: Optional[float],
                 verify_states: Optional[List[dict]],
                 per_shard: bool = False) -> None:
        if every is not None:
            every = float(every)
            if every <= 0:
                from ..checkpoint.codec import CheckpointIntervalError

                raise CheckpointIntervalError(
                    f"checkpoint_every must be > 0, got {every}")
        self.every = self.k = every
        self.sink = sink
        self.verify_at = verify_at
        self.verify_states = verify_states
        self.per_shard = per_shard

    @property
    def stop(self) -> Optional[float]:
        """The virtual time the next action is due at (None: never)."""
        return self.k if self.verify_at is None else self.verify_at

    def cross(self, frontier: float, states: List[dict]) -> None:
        """Act at a safe point whose ``frontier`` reached :attr:`stop`:
        verify ``states`` on a replay, else hand them to the sink; then
        move the next boundary ``k`` past the frontier."""
        if self.verify_at is not None:
            from ..checkpoint.state import verify_machine_state

            for sid, actual in enumerate(states):
                try:
                    verify_machine_state(self.verify_states[sid], actual)
                except Exception as exc:
                    if not self.per_shard:
                        raise
                    raise type(exc)(f"shard {sid}: {exc}") from None
            self.verify_at = None
        else:
            self.sink(self.k, states)
        if self.every is not None:
            while self.k <= frontier:
                self.k += self.every

    def finish(self, frontier: float) -> None:
        """The run completed at ``frontier``; a replay must have passed
        its boundary by then."""
        if self.verify_at is not None:
            from ..checkpoint.codec import CheckpointMismatchError

            raise CheckpointMismatchError(
                f"restore replay completed at virtual time {frontier:g}, "
                f"before reaching the snapshot's boundary "
                f"{self.verify_at:g}; the replay did not reproduce the "
                "checkpointed trajectory")
