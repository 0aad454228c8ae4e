"""Property test of the inbox (FIFO deque + policy-derived arrival heap).

**Per-source FIFO**, checked across every sync policy: messages from one
source to one destination are received in send order (the NoC's FIFO
adjustment guarantees per-pair ordering; the inbox must preserve it
through either pop path — host order under spatial/unbounded,
earliest-arrival order under the arrival-ordered policies).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import build_machine, shared_mesh
from repro.core.task import TaskGroup

POLICIES = [
    "spatial",
    "conservative",
    "quantum",
    "bounded_slack",
    "laxp2p",
    "unbounded",
]


def _chatter_program(n_senders, n_msgs, jitter, received):
    """Root spawns senders; each streams numbered messages back to root.

    ``received`` collects ``(src, index)`` in root's reception order.
    ``jitter`` staggers sender compute so send times interleave across
    sources (stressing arrival ordering at the destination).
    """

    def sender(ctx, root_core, sender_id, k, cycles):
        yield ctx.send(root_core, payload=("hello", sender_id), tag="hello")
        for i in range(k):
            if cycles:
                yield ctx.compute(cycles=cycles)
            yield ctx.send(root_core, payload=(sender_id, i), tag="data")
        return None

    def root(ctx):
        group = TaskGroup()
        spawned = 0
        for s in range(n_senders):
            # The sender id (not the core id) keys the FIFO check: two
            # sender tasks may land on one core, and each task's stream
            # must still arrive in its own send order.
            ok = yield ctx.try_spawn(
                sender, ctx.core_id, s, n_msgs, jitter[s % len(jitter)],
                group=group,
            )
            if ok:
                spawned += 1
        for _ in range(spawned):
            yield ctx.recv(tag="hello")
        for _ in range(spawned * n_msgs):
            msg = yield ctx.recv(tag="data")
            received.append(msg.payload)
        yield ctx.join(group)
        t = yield ctx.now()
        return t

    return root


@pytest.mark.parametrize("policy", POLICIES)
@given(
    n_senders=st.integers(min_value=1, max_value=4),
    n_msgs=st.integers(min_value=1, max_value=6),
    jitter=st.lists(
        st.sampled_from([0, 3, 17, 111, 1009]), min_size=1, max_size=3),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_inbox_preserves_per_source_fifo(policy, n_senders, n_msgs, jitter):
    received = []
    machine = build_machine(shared_mesh(16, sync=policy))
    machine.run(_chatter_program(n_senders, n_msgs, jitter, received))

    last_seen = {}
    for sender_id, idx in received:
        assert last_seen.get(sender_id, -1) < idx, (
            f"out-of-order delivery from sender {sender_id}: "
            f"{idx} after {last_seen[sender_id]}"
        )
        last_seen[sender_id] = idx
