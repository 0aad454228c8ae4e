"""Runtime invariant checker (``ArchConfig.sanitize``).

The sanitizer attaches to a built machine the same way the tracer does
— by subscribing to the machine's observation seam
(``Machine.subscribe``), never by editing or wrapping engine code — so
the checked run executes the exact production hot paths.  What it
asserts:

``drift-admission``
    Every admission the engine emits under a drift-checking policy
    (``SyncPolicy.checks_drift``) is cross-validated against the
    fabric's reference :meth:`~repro.core.fabric.VirtualTimeFabric.drift_ok`.
    The policy inlines the drift rule and answers most calls from a
    cached lower bound on the drift floor (the single hottest call in
    the engine; docs/internals.md §8); this check pins that fast path —
    the same one unsanitized runs take — to the reference semantics on
    every admission.  Lock holders are exempt
    (the paper's Section II-B waiver) and so are forced waiver slices,
    which emit no admissions (the sharded escalation ladder's counted
    accuracy concession).
``publish``
    After every advance of a core's clock: an active core's published time
    covers its virtual time, and published times never regress between
    rescues (fast shadow mode publishes monotonically; a revoked
    permission could wedge neighbours that already ran under it).  A
    serial rescue recompute may lower a shadow to the exact fixpoint,
    so the baseline restarts on every ``rescue`` event.
``causal-delivery`` / ``fifo-delivery``
    Every NoC arrival satisfies ``arrival >= depart + min_latency`` and
    arrivals on one directed ``(src, dst)`` channel never regress.
``inject-*``
    Messages injected across a shard boundary re-check causality and
    per-channel FIFO on the receiving side, and must carry finite
    times — this is the guard against codec corruption on the wire.
``ordered-inbox``
    Policies that execute units in timestamp order
    (``SyncPolicy.ordered_units``, the conservative referee) also
    promise arrival-order message servicing; they turn the engine's
    out-of-order *counter* into a hard failure.
``window-lift``
    The sharded round protocol's lift must stay within the grant the
    adaptive window is allowed to make:
    ``0 <= lift <= (WINDOW_MAX_FACTOR - 1) * T``
    (:mod:`repro.parallel.channels`).  Checked per round on
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
from functools import partial
from typing import Dict, Tuple

from ..core.errors import SanitizerViolation

_EPS = 1e-9
_INF = math.inf


class Sanitizer:
    """Subscription-based runtime checker for one machine.

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
        self._fifo: Dict[Tuple[int, int], float] = {}
        self._inject_fifo: Dict[Tuple[int, int], float] = {}
        self._pub_seen = [-_INF] * machine.n_cores
        machine.sanitizer = self
        events = dict(emitted=self._check_delivery,
                      injected=self._check_inject,
                      proxy_anchored=partial(self._check_raise_only, "proxy"),
                      shadow_adopted=partial(self._check_raise_only, "adopt"),
                      run_finished=self._check_end_of_run)
        policy = machine.policy
        if getattr(policy, "checks_drift", False):
            events["admitted"] = self._check_admission
        if machine.fabric.shadow_mode == "fast":
            # Exact mode recomputes shadows: no monotone promise.
            events["advanced"] = self._check_publish
            events["rescue"] = self._restart_publish_baseline
        if getattr(policy, "ordered_units", False):
            events["serviced"] = self._check_ordered_inbox
        machine.subscribe(**events)

    # -- violation plumbing ------------------------------------------------
    def _violate(self, check: str, message: str, *, core=None, vtime=None,
                 bound=None, **details) -> None:
        raise SanitizerViolation(check, message, core=core, vtime=vtime,
                                 bound=bound, details=details)

    # -- per-event checks --------------------------------------------------
    def _check_admission(self, core) -> None:
        """Policy fast path vs the fabric's reference drift rule."""
        fabric = self.machine.fabric
        if not fabric.active[core.cid] or core.locks_held:
            return
        self.checks["drift-admission"] += 1
        if not fabric.drift_ok(core.cid):
            report = fabric.drift_report(core.cid)
            self._violate(
                "drift-admission",
                f"core {core.cid} admitted at vtime "
                f"{report['vtime']:.3f} above floor "
                f"{report['floor']:.3f} + T {report['T']:g}",
                core=core.cid, vtime=report["vtime"],
                bound=report["floor"] + report["T"], report=report)

    def _check_delivery(self, msg) -> None:
        """Causal + per-channel-FIFO arrival of an emitted message."""
        self.checks["causal-delivery"] += 1
        self._check_channel(msg, "causal-delivery", "fifo-delivery",
                            self._fifo)

    def _check_inject(self, msg) -> None:
        """Boundary injections (sharded receive side): the codec must
        hand back exactly what the sender's NoC computed."""
        self.checks["inject"] += 1
        if not (math.isfinite(msg.send_time) and math.isfinite(msg.arrival)):
            self._violate(
                "inject-time-finite",
                f"injected message {msg.src}->{msg.dst} carries non-finite "
                f"times (send={msg.send_time!r}, arrival={msg.arrival!r})",
                core=msg.dst, src=msg.src)
        self._check_channel(msg, "inject-causal", "inject-fifo",
                            self._inject_fifo)

    def _check_channel(self, msg, causal: str, fifo_check: str,
                       fifo: Dict[Tuple[int, int], float]) -> None:
        """``arrival >= send_time + min_latency``, and arrivals on one
        directed ``(src, dst)`` channel never regress."""
        src, dst, sent, arrival = (msg.src, msg.dst, msg.send_time,
                                   msg.arrival)
        lo = sent + self.machine.noc.min_latency(src, dst)
        if arrival < lo - _EPS:
            self._violate(
                causal,
                f"message {src}->{dst} sent at {sent:.3f} arrives at "
                f"{arrival:.3f} < {lo:.3f}",
                core=dst, vtime=arrival, bound=lo, src=src, send_time=sent)
        if src == dst:
            return
        key = (src, dst)
        last = fifo.get(key, -_INF)
        if arrival < last - _EPS:
            self._violate(
                fifo_check,
                f"channel {src}->{dst} arrival regressed: "
                f"{arrival:.3f} after {last:.3f}",
                core=dst, vtime=arrival, bound=last, src=src)
        if arrival > last:
            fifo[key] = arrival

    def _check_ordered_inbox(self, core, msg) -> None:
        """The ordered-inbox promise becomes a hard failure."""
        self.checks["ordered-inbox"] += 1
        if msg.arrival < core.last_processed_arrival - 1e-9:
            self._violate(
                "ordered-inbox",
                f"core {core.cid} processed arrival {msg.arrival:.3f} "
                f"after {core.last_processed_arrival:.3f} under an "
                f"arrival-ordered policy",
                core=core.cid, vtime=msg.arrival,
                bound=core.last_processed_arrival)

    def _check_raise_only(self, check: str, cid: int, value: float,
                          before: float) -> None:
        """Proxy anchors and adopted shadows: finite, raise-only."""
        self.checks[check] += 1
        if math.isnan(value):
            self._violate(check, f"{check} value for core {cid} is NaN",
                          core=cid)
        pub = self.machine.fabric.published[cid]
        if pub < min(before, value) - _EPS:
            self._violate(
                check,
                f"{check}: core {cid} published time regressed: "
                f"{pub:.3f} after {before:.3f}",
                core=cid, vtime=pub, bound=before)

    def _check_end_of_run(self) -> None:
        """Lock / task accounting at a clean end of run."""
        machine = self.machine
        if machine.live_tasks != 0:
            return
        self.checks["end-of-run"] += 1
        for core in machine.cores:
            if core.locks_held != 0:
                self._violate(
                    "lock-leak",
                    f"core {core.cid} still holds {core.locks_held} "
                    f"lock(s) at end of run", core=core.cid)
            if core.current is not None:
                self._violate(
                    "task-leak",
                    f"core {core.cid} still runs {core.current!r} at end "
                    f"of run with no live tasks", core=core.cid)

    def _restart_publish_baseline(self) -> None:
        """A rescue recompute may *lower* fast-mode shadows to the exact
        fixpoint (``fabric._full_recompute``), so the monotone promise
        restarts at every rescue."""
        self._pub_seen = [-_INF] * self.machine.n_cores

    def _check_publish(self, core) -> None:
        """After every advance: an active core's published time covers
        its clock, and published times never regress between rescues."""
        cid = core.cid
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
    def begin_round(self, lift: float) -> None:
        """Validate one coordination round's window lift (worker side).

        The adaptive window may grant at most
        ``(WINDOW_MAX_FACTOR - 1) * T`` of extra drift permission; a
        lift beyond that (or a negative one) means the coordinator's
        window arithmetic is broken and every drift check this round
        would silently run under wrong permissions.
        """
        from ..parallel import channels

        self.checks["window-lift"] += 1
        T = self.machine.fabric.T
        window_max = channels.WINDOW_MAX_FACTOR
        bound = (window_max - 1.0) * T
        if lift < -_EPS or lift > bound * (1.0 + 1e-12) + _EPS:
            self._violate(
                "window-lift",
                f"round lift {lift:g} outside [0, {bound:g}] "
                f"(window cap x{window_max:g}, T {T:g})",
                bound=bound, lift=lift, window_max=window_max)
        self.lift = lift
