"""Cross-shard chatter roots for the sharded workload.

Importable factories (``WorkloadSpec(factory="e2e_roots:...")``): shard
workers rebuild the roots from these by import path.  A ping root on
one shard and an echo root on the other keep USER messages crossing
the fence for the whole op, so the edge pipes and the board's message
counts are exercised and ``parallel.bytes_shipped`` is non-zero.
"""

from types import SimpleNamespace


def cross_ping(peer: int, rounds: int):
    def root(ctx):
        for i in range(rounds):
            yield ctx.send(peer, payload=i, tag=("e2e-ping", i))
            yield ctx.recv(tag=("e2e-pong", i))
        return rounds

    return SimpleNamespace(root=root)


def cross_echo(rounds: int):
    def root(ctx):
        for i in range(rounds):
            msg = yield ctx.recv(tag=("e2e-ping", i))
            yield ctx.send(msg.src, payload=msg.payload, tag=("e2e-pong", i))
        return rounds

    return SimpleNamespace(root=root)
