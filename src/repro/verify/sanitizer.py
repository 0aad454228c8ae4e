"""Runtime invariant checker (``ArchConfig.sanitize``).

The sanitizer attaches to a built machine the same way the tracer does
— by wrapping methods, never by editing engine code — so the checked
run executes the exact production hot paths.  What it asserts:

``drift-admission``
    Every positive ``may_run`` answer from a drift-checking policy
    (``SyncPolicy.checks_drift``) is cross-validated against the
    fabric's reference :meth:`~repro.core.fabric.VirtualTimeFabric.drift_ok`.
    The policy inlines the drift rule and answers most calls from a
    cached lower bound on the drift floor (the single hottest call in
    the engine; docs/internals.md §8); this check pins that fast path —
    the same one unsanitized runs take — to the reference semantics on
    every admission.  Lock holders are exempt
    (the paper's Section II-B waiver) and so are forced waiver slices
    (the sharded escalation ladder's counted accuracy concession).
``publish``
    After every ``fabric.advance``: an active core's published time
    covers its virtual time, and published times never regress (fast
    shadow mode publishes monotonically; a revoked permission could
    wedge neighbours that already ran under it).
``causal-delivery`` / ``fifo-delivery``
    Every NoC arrival satisfies ``arrival >= depart + min_latency`` and
    arrivals on one directed ``(src, dst)`` channel never regress.
``inject-*``
    Messages injected across a shard boundary re-check causality and
    per-channel FIFO on the receiving side, and must carry finite
    times — this is the guard against codec corruption on the wire.
``ordered-inbox``
    Policies promising arrival-order processing
    (``SyncPolicy.ordered_inbox``) turn the engine's out-of-order
    *counter* into a hard failure.
``window-lift``
    The sharded round protocol's lift must stay within the grant the
    adaptive window is allowed to make:
    ``0 <= lift <= (window_max_factor - 1) * T``.  Checked per round on
    the worker (:meth:`Sanitizer.begin_round`) and by the coordinator
    before each broadcast.
``proxy`` / ``adopt``
    Boundary-proxy anchors and adopted shadows must be finite and may
    only raise a core's published time.
``lock-leak`` / ``task-leak``
    At a clean end of run (no live tasks) every core has released its
    locks and retired its current task.

All failures raise :class:`~repro.core.errors.SanitizerViolation` with
the check name, core, virtual times and a details dict (see
``fabric.drift_report``); the sharded worker ships them to the
coordinator as structured data.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Tuple

from ..core.errors import SanitizerViolation

_EPS = 1e-9
_INF = math.inf


class Sanitizer:
    """Wrap-based runtime checker for one machine.

    Construct with a fully-built machine (the builder does this when
    ``cfg.sanitize`` is set); the instance registers itself as
    ``machine.sanitizer``.  ``checks`` counts how often each check ran,
    so tests can assert the sanitizer actually exercised a path.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        #: Per-check execution counters (check name -> times evaluated).
        self.checks: Counter = Counter()
        #: Current round's window lift (sharded worker; 0.0 elsewhere).
        self.lift = 0.0
        self._in_waiver = False
        self._fifo: Dict[Tuple[int, int], float] = {}
        self._inject_fifo: Dict[Tuple[int, int], float] = {}
        n = machine.n_cores
        self._pub_seen = [-_INF] * n
        fabric = machine.fabric
        self._fast_shadows = fabric.shadow_mode == "fast"
        self._drift_checked = bool(
            getattr(machine.policy, "checks_drift", False))
        machine.sanitizer = self
        self._install()

    # -- violation plumbing ------------------------------------------------
    def _violate(self, check: str, message: str, *, core=None, vtime=None,
                 bound=None, **details) -> None:
        raise SanitizerViolation(check, message, core=core, vtime=vtime,
                                 bound=bound, details=details)

    # -- hook installation -------------------------------------------------
    def _install(self) -> None:
        machine = self.machine
        fabric = machine.fabric
        policy = machine.policy
        noc = machine.noc
        checks = self.checks

        # 1. Admission cross-check: policy fast path vs fabric reference.
        if self._drift_checked:
            orig_may_run = policy.may_run  # bound method (class attribute)

            def may_run(core):
                ok = orig_may_run(core)
                if (ok and not self._in_waiver and fabric.active[core.cid]
                        and core.locks_held == 0):
                    checks["drift-admission"] += 1
                    if not fabric.drift_ok(core.cid):
                        report = fabric.drift_report(core.cid)
                        self._violate(
                            "drift-admission",
                            f"core {core.cid} admitted at vtime "
                            f"{report['vtime']:.3f} above floor "
                            f"{report['floor']:.3f} + T {report['T']:g}",
                            core=core.cid, vtime=report["vtime"],
                            bound=report["floor"] + report["T"],
                            report=report)
                return ok

            policy.__dict__["may_run"] = may_run
            self._may_run_wrap = may_run

            # run_shard_waiver swaps policy.__dict__["may_run"] around
            # its forced slice and deletes the entry afterwards, which
            # would silently drop our wrapper — reinstate it, and mark
            # the slice exempt (the waiver is a *deliberate*, counted
            # drift-rule bypass).
            orig_waiver = machine.run_shard_waiver

            def run_shard_waiver():
                self._in_waiver = True
                try:
                    return orig_waiver()
                finally:
                    self._in_waiver = False
                    policy.__dict__["may_run"] = may_run

            machine.run_shard_waiver = run_shard_waiver

        # 2. Publish consistency after every advance.
        orig_advance = fabric.advance

        def advance(cid, new_time):
            orig_advance(cid, new_time)
            self._check_publish(cid)

        fabric.advance = advance

        # 3. Causal + per-channel-FIFO delivery at the NoC.
        orig_delivery = noc.delivery_time

        def delivery_time(src, dst, size, depart):
            arrival = orig_delivery(src, dst, size, depart)
            checks["causal-delivery"] += 1
            lo = depart + noc.min_latency(src, dst)
            if arrival < lo - _EPS:
                self._violate(
                    "causal-delivery",
                    f"message {src}->{dst} departs at {depart:.3f} but "
                    f"arrives at {arrival:.3f} < {lo:.3f} "
                    f"(min latency {noc.min_latency(src, dst):g})",
                    core=dst, vtime=arrival, bound=lo,
                    src=src, depart=depart)
            if src != dst:
                key = (src, dst)
                last = self._fifo.get(key, -_INF)
                if arrival < last - _EPS:
                    self._violate(
                        "fifo-delivery",
                        f"channel {src}->{dst} arrival regressed: "
                        f"{arrival:.3f} after {last:.3f}",
                        core=dst, vtime=arrival, bound=last, src=src)
                if arrival > last:
                    self._fifo[key] = arrival
            return arrival

        noc.delivery_time = delivery_time

        # 4. Boundary injections (sharded receive side): the codec must
        # hand back exactly what the sender's NoC computed.
        orig_inject = machine.inject_message

        def inject_message(kind, src, dst, send_time, size, arrival,
                           payload=None, tag=None):
            checks["inject"] += 1
            if not (math.isfinite(send_time) and math.isfinite(arrival)):
                self._violate(
                    "inject-time-finite",
                    f"injected message {src}->{dst} carries non-finite "
                    f"times (send={send_time!r}, arrival={arrival!r})",
                    core=dst, src=src)
            lo = send_time + noc.min_latency(src, dst)
            if arrival < lo - _EPS:
                self._violate(
                    "inject-causal",
                    f"injected message {src}->{dst} sent at "
                    f"{send_time:.3f} arrives at {arrival:.3f} < {lo:.3f}",
                    core=dst, vtime=arrival, bound=lo, src=src,
                    send_time=send_time)
            key = (src, dst)
            last = self._inject_fifo.get(key, -_INF)
            if arrival < last - _EPS:
                self._violate(
                    "inject-fifo",
                    f"injected channel {src}->{dst} arrival regressed: "
                    f"{arrival:.3f} after {last:.3f}",
                    core=dst, vtime=arrival, bound=last, src=src)
            if arrival > last:
                self._inject_fifo[key] = arrival
            return orig_inject(kind, src, dst, send_time, size, arrival,
                               payload, tag)

        machine.inject_message = inject_message

        # 5. Ordered-inbox promise becomes a hard failure.
        if getattr(policy, "ordered_inbox", False):
            orig_process = machine._process_message

            def process_message(core, msg):
                checks["ordered-inbox"] += 1
                if msg.arrival < core.last_processed_arrival - 1e-9:
                    self._violate(
                        "ordered-inbox",
                        f"core {core.cid} processed arrival "
                        f"{msg.arrival:.3f} after "
                        f"{core.last_processed_arrival:.3f} under an "
                        f"arrival-ordered policy",
                        core=core.cid, vtime=msg.arrival,
                        bound=core.last_processed_arrival)
                orig_process(core, msg)

            machine._process_message = process_message

        # 6. Proxy/adopt protocol: finite, raise-only.
        orig_proxy = fabric.set_proxy_time
        orig_adopt = fabric.adopt_shadow

        def set_proxy_time(cid, value):
            checks["proxy"] += 1
            if math.isnan(value):
                self._violate("proxy", f"proxy {cid} anchored at NaN",
                              core=cid)
            before = fabric.published[cid]
            orig_proxy(cid, value)
            if fabric.published[cid] < min(before, value) - _EPS:
                self._violate(
                    "proxy",
                    f"proxy {cid} published time regressed: "
                    f"{fabric.published[cid]:.3f} after {before:.3f}",
                    core=cid, vtime=fabric.published[cid], bound=before)

        def adopt_shadow(cid, value):
            checks["adopt"] += 1
            if math.isnan(value):
                self._violate("adopt", f"shadow {cid} adopted NaN",
                              core=cid)
            before = fabric.published[cid]
            orig_adopt(cid, value)
            if fabric.published[cid] < min(before, value) - _EPS:
                self._violate(
                    "adopt",
                    f"shadow {cid} published time regressed: "
                    f"{fabric.published[cid]:.3f} after {before:.3f}",
                    core=cid, vtime=fabric.published[cid], bound=before)

        fabric.set_proxy_time = set_proxy_time
        fabric.adopt_shadow = adopt_shadow

        # 7. End-of-run lock / task accounting.
        orig_finish = machine.finish_run

        def finish_run():
            orig_finish()
            if machine.live_tasks == 0:
                checks["end-of-run"] += 1
                for core in machine.cores:
                    if core.locks_held != 0:
                        self._violate(
                            "lock-leak",
                            f"core {core.cid} still holds "
                            f"{core.locks_held} lock(s) at end of run",
                            core=core.cid)
                    if core.current is not None:
                        self._violate(
                            "task-leak",
                            f"core {core.cid} still runs "
                            f"{core.current!r} at end of run with no "
                            f"live tasks",
                            core=core.cid)

        machine.finish_run = finish_run

    # -- per-check helpers -------------------------------------------------
    def _check_publish(self, cid: int) -> None:
        if not self._fast_shadows:
            return  # exact mode recomputes shadows; no monotone promise
        self.checks["publish"] += 1
        fabric = self.machine.fabric
        pub = fabric.published[cid]
        if fabric.active[cid] and pub < fabric.vtime[cid] - _EPS:
            self._violate(
                "publish",
                f"core {cid} advanced to {fabric.vtime[cid]:.3f} but "
                f"publishes only {pub:.3f}",
                core=cid, vtime=fabric.vtime[cid], bound=pub)
        if pub != _INF:
            last = self._pub_seen[cid]
            if pub < last - _EPS:
                self._violate(
                    "publish",
                    f"core {cid} published time regressed: {pub:.3f} "
                    f"after {last:.3f}",
                    core=cid, vtime=pub, bound=last)
            if pub > last:
                self._pub_seen[cid] = pub

    # -- sharded round protocol -------------------------------------------
    def begin_round(self, lift: float, window_max_factor: float) -> None:
        """Validate one coordination round's window lift (worker side).

        The adaptive window may grant at most
        ``(window_max_factor - 1) * T`` of extra drift permission; a
        lift beyond that (or a negative one) means the coordinator's
        window arithmetic is broken and every drift check this round
        would silently run under wrong permissions.
        """
        self.checks["window-lift"] += 1
        T = self.machine.fabric.T
        bound = (window_max_factor - 1.0) * T
        if lift < -_EPS or lift > bound * (1.0 + 1e-12) + _EPS:
            self._violate(
                "window-lift",
                f"round lift {lift:g} outside [0, {bound:g}] "
                f"(window_max_factor {window_max_factor:g}, T {T:g})",
                bound=bound, lift=lift,
                window_max_factor=window_max_factor)
        self.lift = lift
