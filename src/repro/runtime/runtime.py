"""The task run-time system (paper, Section IV).

Implements conditional spawning in the spirit of TBB/Capsule:

* ``probe`` — before spawning, the run-time checks proxies of the
  neighbours' task-queue occupancy; only when some neighbour is likely to
  have a free slot does it send a PROBE reservation message.  The neighbour
  accepts (PROBE_ACK) or denies (PROBE_NACK).
* ``spawn`` — on a successful probe, the TASK_SPAWN message carries the new
  task to the reserved slot; the accepting core then broadcasts its new
  queue state to its own neighbours, keeping proxies fresh.
* denied probes mean the program executes the task's code sequentially.

Dispatch is to *neighbouring cores only*, avoiding communication with far
away cores; tasks progressively migrate outward when local cores are
overloaded because remotely started tasks spawn onward from their own core.

Task grouping gives coarse synchronization: terminating tasks decrement
their group's active counter; ``join`` suspends until the counter reaches
zero, woken by a JOINER_REQUEST notification from the last finishing task.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .dispatch import DispatchPolicy, OccupancyDispatch
from .locks import SimLock
from ..core.actions import TrySpawn
from ..core.errors import ProtocolError
from ..core.messages import MsgKind
from ..core.task import Task, TaskGroup, TaskState


class Runtime:
    """Per-machine run-time system instance."""

    def __init__(self, spawn_msg_size: float = 64.0,
                 dispatch: DispatchPolicy = None,
                 work_stealing: bool = False,
                 steal_threshold: int = 2) -> None:
        self.spawn_msg_size = spawn_msg_size
        self.dispatch = dispatch or OccupancyDispatch()
        self.work_stealing = work_stealing
        #: A victim must advertise at least this many queued tasks.
        self.steal_threshold = steal_threshold
        self.steals_attempted = 0
        self.steals_successful = 0
        self.machine = None
        self._obs = None  # telemetry; rebound from the machine in attach()
        # Per-core run-time neighbourhood: the full topological
        # neighbours, or the shard-local subset when the machine is
        # fenced (see attach()).
        self._neighbors: List[Tuple[int, ...]] = []
        self._steal_pending: List[bool] = []
        # Occupancy proxies: proxy[c][n] = believed occupancy of neighbour
        # n; None until core c first spawns or hears from a neighbour
        # (see _proxies).
        self._proxy: List[Optional[Dict[int, int]]] = []
        # Rotating cursor per core for neighbour tie-breaking.
        self._cursor: List[int] = []
        self._last_broadcast: List[int] = []
        # Group completion bookkeeping for the fast-path join.
        self._group_last_finish: Dict[int, Tuple[float, int]] = {}

    # -- wiring ---------------------------------------------------------
    def attach(self, machine) -> None:
        self.machine = machine
        # Opt-in telemetry (repro.obs), attached before the runtime by
        # the builder; every use below guards on ``is not None``.
        self._obs = machine.telemetry
        n = machine.n_cores
        fence = machine.fence
        if fence is None:
            self._neighbors = machine.soa.neighbors
        else:
            # Shard fencing (ArchConfig.shards > 0): the run-time only
            # gossips with, dispatches to and steals from same-shard
            # neighbours, so protocol messages — which carry live Task
            # and lock objects — never cross a shard boundary.  Applied
            # on both backends, so fenced serial and sharded runs see
            # the same run-time behaviour.
            owner = fence.owner
            self._neighbors = [
                tuple(j for j in machine.topo.neighbors(c)
                      if owner[j] == owner[c])
                for c in range(n)
            ]
        self._proxy = [None] * n
        self._cursor = [0] * n
        self._last_broadcast = [-1] * n
        self._steal_pending = [False] * n
        self.dispatch.attach(machine)
        machine.register_handler(MsgKind.PROBE, self._on_probe)
        machine.register_handler(MsgKind.PROBE_ACK, self._on_probe_ack)
        machine.register_handler(MsgKind.PROBE_NACK, self._on_probe_nack)
        machine.register_handler(MsgKind.TASK_SPAWN, self._on_task_spawn)
        machine.register_handler(MsgKind.QUEUE_STATE, self._on_queue_state)
        machine.register_handler(MsgKind.JOINER_REQUEST, self._on_joiner_request)
        machine.register_handler(MsgKind.LOCK_REQUEST, self._on_lock_request)
        machine.register_handler(MsgKind.LOCK_GRANT, self._on_lock_grant)
        machine.register_handler(MsgKind.LOCK_RELEASE, self._on_lock_release)
        machine.register_handler(MsgKind.STEAL_REQUEST, self._on_steal_request)
        machine.register_handler(MsgKind.STEAL_REPLY, self._on_steal_reply)

    # -- conditional spawning ----------------------------------------------
    def try_spawn(self, core, task: Task, action: TrySpawn) -> None:
        """Engine entry point for the TrySpawn action."""
        machine = self.machine
        params = machine.params
        machine.advance_by(core, core.scaled(params.probe_check_cycles))
        target = self._pick_target(core)
        tel = self._obs
        if target is None:
            machine.stats.tasks_run_inline += 1
            if tel is not None:
                tel.counters["runtime.spawn_inline_no_target"] += 1
            task.resume_value = False
            return
        if tel is not None:
            tel.counters["runtime.spawn_probes"] += 1
        # Send the reservation; the probing task blocks for the round trip.
        suspended = machine.suspend_current(core, "probe")
        machine.send_with_overhead(
            MsgKind.PROBE, core, target, payload=(suspended, action)
        )

    def _proxies(self, cid: int) -> Dict[int, int]:
        """Core ``cid``'s proxy map, built whole at its first use: every
        neighbour at occupancy 0, in neighbour order (dispatch iterates
        it, so the order is part of the trajectory)."""
        proxies = self._proxy[cid]
        if proxies is None:
            proxies = self._proxy[cid] = dict.fromkeys(self._neighbors[cid], 0)
        return proxies

    def _pick_target(self, core) -> Optional[int]:
        """Delegate target choice to the dispatch policy."""
        proxies = self._proxies(core.cid)
        if not proxies:
            return None
        capacity = self.machine.params.queue_capacity
        target = self.dispatch.pick(
            core.cid, proxies, self._cursor[core.cid], capacity
        )
        self._cursor[core.cid] += 1
        return target

    def _on_probe(self, core, msg) -> None:
        machine = self.machine
        capacity = machine.params.queue_capacity
        if core.occupancy() < capacity:
            core.reserved_slots += 1
            machine.send_service_message(
                MsgKind.PROBE_ACK, core, msg.src, payload=msg.payload
            )
        else:
            machine.send_service_message(
                MsgKind.PROBE_NACK,
                core,
                msg.src,
                payload=(msg.payload, core.occupancy()),
            )

    def _on_probe_ack(self, core, msg) -> None:
        machine = self.machine
        tel = self._obs
        if tel is not None:
            tel.counters["runtime.spawn_remote"] += 1
        parent_task, action = msg.payload
        birth = machine.service_now(core)
        child = Task(
            action.fn, action.args, group=action.group, birth_time=birth
        )
        if action.group is not None:
            action.group.register()
        machine.fabric.add_birth(core.cid, birth)
        machine.register_task(child)
        machine.send_service_message(
            MsgKind.TASK_SPAWN,
            core,
            msg.src,
            payload=(child, core.cid, birth),
            size=self.spawn_msg_size,
        )
        # Optimistically bump the proxy so back-to-back spawns spread out.
        proxies = self._proxies(core.cid)
        proxies[msg.src] = proxies[msg.src] + 1
        machine.wake_task(parent_task, True, birth, ctx_switch=False)

    def _on_probe_nack(self, core, msg) -> None:
        machine = self.machine
        tel = self._obs
        if tel is not None:
            tel.counters["runtime.spawn_denied"] += 1
        payload, occupancy = msg.payload
        parent_task, action = payload
        self._proxies(core.cid)[msg.src] = occupancy
        machine.stats.tasks_run_inline += 1
        machine.wake_task(parent_task, False, machine.service_now(core),
                          ctx_switch=False)

    def _on_task_spawn(self, core, msg) -> None:
        machine = self.machine
        child, parent_core, birth = msg.payload
        core.reserved_slots -= 1
        if core.reserved_slots < 0:
            raise ProtocolError("TASK_SPAWN without a reservation")
        child.ready_time = machine.service_now(core)
        child.core = core.cid
        core.enqueue(child)
        hook = getattr(machine.policy, "on_event_enqueued", None)
        if hook is not None:
            hook(core)
        machine.fabric.remove_birth(parent_core, birth)
        # Removing the birth may raise the parent's drift floor.
        parent = machine.cores[parent_core]
        if parent.stalled:
            machine._make_ready(parent)
        self._broadcast_queue_state(core, at_time=child.ready_time)

    def _broadcast_queue_state(self, core, at_time=None) -> None:
        occupancy = core.occupancy()
        if occupancy == self._last_broadcast[core.cid]:
            return
        self._last_broadcast[core.cid] = occupancy
        machine = self.machine
        if at_time is None:
            at_time = machine.now(core)
        for nbr in self._neighbors[core.cid]:
            machine.send_message_at(
                MsgKind.QUEUE_STATE, core, nbr, at_time, payload=occupancy
            )

    def _on_queue_state(self, core, msg) -> None:
        self._proxies(core.cid)[msg.src] = msg.payload

    def on_task_dequeued(self, core) -> None:
        """Engine hook: a task left the queue; refresh neighbour proxies."""
        self._broadcast_queue_state(core)

    # -- groups and join -----------------------------------------------------
    def join(self, core, task: Task, group: TaskGroup) -> None:
        machine = self.machine
        if group.count == 0:
            # All members already finished (in host order); causally the
            # joiner cannot proceed before the completion news could reach
            # this core.
            last = self._group_last_finish.get(group.gid)
            if last is not None:
                finish_time, finish_core = last
                arrival = finish_time + machine.noc.min_latency(
                    finish_core, core.cid
                )
                machine.advance_to(core, arrival)
            task.resume_value = None
            return
        machine.suspend_current(core, "join")
        group.joiners.append(task)

    def on_task_finished(self, core, task: Task) -> None:
        """Engine hook: group accounting + queue-state refresh."""
        machine = self.machine
        group = task.group
        if group is not None:
            machine.advance_by(
                core, core.scaled(machine.params.group_decrement_cycles)
            )
            remaining = group.deregister()
            now = machine.now(core)
            last = self._group_last_finish.get(group.gid)
            if last is None or now > last[0]:
                self._group_last_finish[group.gid] = (now, core.cid)
            if remaining == 0 and group.joiners:
                joiners, group.joiners = group.joiners, []
                for joiner in joiners:
                    machine.send_with_overhead(
                        MsgKind.JOINER_REQUEST,
                        core,
                        joiner.core,
                        payload=joiner,
                    )
        self._broadcast_queue_state(core)

    def _on_joiner_request(self, core, msg) -> None:
        machine = self.machine
        joiner = msg.payload
        machine.wake_task(joiner, None, machine.service_now(core),
                          ctx_switch=True)

    # -- work stealing (extension) -----------------------------------------
    #
    # The paper's run-time only pushes work (conditional spawning); Cilk's
    # distributed version steals remotely when local task sources are
    # depleted.  This optional extension lets an idle core pull a NEW
    # (not-yet-started) task from its most loaded neighbour: one
    # outstanding request at a time, and only when the neighbour's proxied
    # occupancy reaches the steal threshold.

    def on_core_idle(self, core) -> None:
        """Engine hook: a core ran out of work."""
        if not self.work_stealing or self._steal_pending[core.cid]:
            return
        proxies = self._proxies(core.cid)
        if not proxies:
            return
        victim = max(proxies, key=proxies.get)
        if proxies[victim] < self.steal_threshold:
            return
        machine = self.machine
        self._steal_pending[core.cid] = True
        self.steals_attempted += 1
        tel = self._obs
        if tel is not None:
            tel.counters["runtime.steals_attempted"] += 1
        machine.send_message_at(
            MsgKind.STEAL_REQUEST, core, victim,
            machine.fabric.vtime[core.cid], payload=core.cid,
        )

    def _on_steal_request(self, core, msg) -> None:
        machine = self.machine
        # Only NEW tasks may migrate; started tasks are bound to their core.
        stolen = None
        for i in range(len(core.queue) - 1, -1, -1):
            task = core.queue[i]
            if task.gen is None:
                stolen = task
                del core.queue[i]
                break
        if stolen is not None:
            self._broadcast_queue_state(core,
                                        at_time=machine.service_now(core))
        machine.send_service_message(
            MsgKind.STEAL_REPLY, core, msg.src, payload=stolen,
            size=self.spawn_msg_size if stolen is not None else 8.0,
        )

    def _on_steal_reply(self, core, msg) -> None:
        machine = self.machine
        self._steal_pending[core.cid] = False
        task = msg.payload
        if task is None:
            return
        self.steals_successful += 1
        tel = self._obs
        if tel is not None:
            tel.counters["runtime.steals_successful"] += 1
        task.ready_time = machine.service_now(core)
        task.core = core.cid
        core.enqueue(task)
        hook = getattr(machine.policy, "on_event_enqueued", None)
        if hook is not None:
            hook(core)
        self._broadcast_queue_state(core, at_time=task.ready_time)

    # -- locks -------------------------------------------------------------
    def acquire(self, core, task: Task, lock: SimLock) -> None:
        machine = self.machine
        if lock.home_core is not None and lock.home_core != core.cid:
            suspended = machine.suspend_current(core, "lock")
            machine.send_with_overhead(
                MsgKind.LOCK_REQUEST, core, lock.home_core, payload=(suspended, lock)
            )
            return
        # Local (or home) acquisition: atomic RMW on the lock word.
        machine.advance_by(core, self._lock_rmw_cycles(core))
        if lock.holder is None:
            self._grant_local(core, task, lock)
            task.resume_value = None
        else:
            lock.contended_acquisitions += 1
            tel = self._obs
            if tel is not None:
                tel.counters["runtime.lock_contended"] += 1
            suspended = machine.suspend_current(core, "lock")
            lock.waiters.append(suspended)

    def _lock_rmw_cycles(self, core) -> float:
        memory = self.machine.memory
        base = getattr(memory, "bank_latency", None)
        if base is None:
            base = getattr(memory, "l2_latency", 10.0)
        return base + getattr(memory, "atomic_op_cycles", 2.0)

    def _grant_local(self, core, task: Task, lock: SimLock) -> None:
        lock.holder = task
        lock.acquisitions += 1
        core.locks_held += 1

    def release(self, core, task: Task, lock: SimLock) -> None:
        machine = self.machine
        if lock.holder is not task:
            raise ProtocolError(
                f"{lock.name}: released by {task!r} but held by {lock.holder!r}"
            )
        machine.advance_by(core, self._lock_rmw_cycles(core))
        core.locks_held -= 1
        if core.locks_held < 0:
            raise ProtocolError("core lock count went negative")
        task.resume_value = None
        if lock.home_core is not None and lock.home_core != core.cid:
            # Homed lock released remotely: notify the home core, which
            # grants the next waiter when it processes the release.
            machine.send_with_overhead(
                MsgKind.LOCK_RELEASE, core, lock.home_core, payload=(task, lock)
            )
            return
        lock.holder = None
        self._grant_next(core, lock)

    def _grant_next(self, core, lock: SimLock, at_time=None) -> None:
        """Hand the lock to the next FIFO waiter (possibly remote)."""
        if lock.holder is not None or not lock.waiters:
            return
        machine = self.machine
        if at_time is None:
            at_time = machine.now(core)
        waiter = lock.waiters.popleft()
        lock.holder = waiter
        lock.acquisitions += 1
        waiter_core = machine.cores[waiter.core]
        waiter_core.locks_held += 1
        handoff = machine.noc.min_latency(core.cid, waiter.core)
        machine.wake_task(
            waiter, None, at_time + handoff, ctx_switch=True
        )

    def _on_lock_request(self, core, msg) -> None:
        machine = self.machine
        task, lock = msg.payload
        if lock.holder is None:
            lock.holder = task
            lock.acquisitions += 1
            machine.cores[task.core].locks_held += 1
            machine.send_service_message(
                MsgKind.LOCK_GRANT, core, msg.src, payload=(task, lock),
                extra_delay=self._lock_rmw_cycles(core),
            )
        else:
            lock.contended_acquisitions += 1
            tel = self._obs
            if tel is not None:
                tel.counters["runtime.lock_contended"] += 1
            lock.waiters.append(task)

    def _on_lock_grant(self, core, msg) -> None:
        task, lock = msg.payload
        self.machine.wake_task(
            task, None, self.machine.service_now(core), ctx_switch=True
        )

    def _on_lock_release(self, core, msg) -> None:
        task, lock = msg.payload
        # The releaser already dropped its local hold count in release().
        lock.holder = None
        self._grant_next(core, lock, at_time=self.machine.service_now(core))
