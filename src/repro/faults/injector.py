"""Fault injection at the fabric boundary.

A :class:`FaultInjector` realizes a :class:`~repro.faults.plan.FaultPlan`
against one :class:`~repro.network.base.Fabric` by *instance-attribute
wrapping*: :meth:`attach` shadows the fabric's ``transfer`` /
``charm_transport`` / ``direct_put`` bound methods with closures on the
instance.  A runtime built without a plan never takes this path, so the
disabled-faults cost is literally zero — no flag test, no indirection,
no extra attribute on the hot path (guarded by
``benchmarks/test_faults_off_micro.py``).

How faults act
--------------
Scope resolution: the ``charm_transport`` / ``direct_put`` wrappers set
the injector's *current scope* before delegating to the original
methods, whose internal ``self.transfer(...)`` calls land on the
``transfer`` wrapper — the single point where faults apply, once per
wire transfer.  (A multi-transfer service like IB rendezvous applies
its scope's rule to each transfer it issues synchronously; built-in
profiles leave the ``charm``/``raw`` scopes fault-free.)  The CkDirect
reliability layer wraps its ack sends in :meth:`scoped`\\ ``("ack")``
so they are governed by the ``ack`` rule rather than ``charm``.

* **stall** — the sending node's NIC freezes for ``stall_time`` before
  this transfer: its injection port is marked busy, back-pressuring the
  transfer (and every later one from that node) through the normal
  occupancy model.
* **drop** — the transfer runs (charging occupancy and wire time — the
  bytes *are* sent) but the delivery callback is replaced with a no-op:
  the receiver never learns anything arrived.
* **dup** — the delivery callback fires normally, then again after a
  sampled gap: the receiver sees the same delivery twice.
* **delay** — the delivery callback is deferred by exponential jitter
  beyond the modelled delivery time.

The CkDirect-specific **torn sentinel** cannot be expressed at this
layer (the fabric does not know the trailing word is special), so the
ckdirect api draws it via :meth:`draw_torn` at put-issue time and
routes delivery through the torn-landing path itself.

Determinism: every decision and every magnitude comes from a dedicated
``(scope, kind)`` :func:`~repro.sim.rng.substream` of the plan's seed,
and draws happen in simulated-event order — so a faulted run is a pure
function of the workload and the seed, byte-identical at any
``--jobs N``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from ..projections.events import CAT_FAULT, NET_TRACK
from ..sim.rng import substream
from .plan import SCOPES, FaultPlan, FaultRule

if TYPE_CHECKING:  # pragma: no cover
    from ..network.base import Fabric
    from ..sim import Simulator

#: Stable integer path keys for RNG substream derivation (names are
#: for humans; substream() takes small-int paths).
_FAULTS_NS = 7  # namespace key separating fault streams from app RNG
_SCOPE_IDX = {s: i for i, s in enumerate(SCOPES)}
_KIND_IDX = {"stall": 0, "drop": 1, "dup": 2, "delay": 3, "torn": 4}


class FaultInjector:
    """Applies a :class:`FaultPlan` to one fabric's transport services."""

    def __init__(self, plan: FaultPlan, sim: "Simulator", trace=None) -> None:
        self.plan = plan
        self.sim = sim
        self.trace = trace
        self.fabric: Optional["Fabric"] = None
        #: injected-fault tally, keyed ``(scope, kind)``.
        self.counts: Dict[Tuple[str, str], int] = {}
        self._scope = "raw"
        self._streams: Dict[Tuple[str, str], object] = {}

    # ------------------------------------------------------------------
    # Deterministic draws
    # ------------------------------------------------------------------

    def _stream(self, scope: str, kind: str):
        key = (scope, kind)
        rng = self._streams.get(key)
        if rng is None:
            rng = substream(
                self.plan.seed, _FAULTS_NS, _SCOPE_IDX[scope], _KIND_IDX[kind]
            )
            self._streams[key] = rng
        return rng

    def _hit(self, scope: str, kind: str, p: float) -> bool:
        return p > 0.0 and self._stream(scope, kind).random() < p

    def _jitter(self, scope: str, kind: str, mean: float) -> float:
        return float(self._stream(scope, kind).exponential(mean))

    def draw_torn(self) -> bool:
        """Put-issue-time draw for the torn-sentinel fault (``put`` scope).

        Called by the ckdirect api, which implements the torn landing —
        see the module docstring for why it cannot live here.
        """
        rule = self.plan.rule("put")
        if self._hit("put", "torn", rule.torn):
            self._note("put", "torn")
            return True
        return False

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _note(self, scope: str, kind: str) -> None:
        key = (scope, kind)
        self.counts[key] = self.counts.get(key, 0) + 1
        if self.trace is not None:
            self.trace.count(f"fault.{scope}.{kind}")
        fabric = self.fabric
        if fabric is not None and fabric.tracer is not None:
            fabric.tracer.instant(
                fabric.trace_run, NET_TRACK, CAT_FAULT, f"{kind}:{scope}",
                self.sim.now,
            )

    @property
    def total_injected(self) -> int:
        """Total faults injected so far (all scopes and kinds)."""
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # Scope plumbing
    # ------------------------------------------------------------------

    @contextmanager
    def scoped(self, scope: str):
        """Run fabric calls under an explicit fault scope (e.g. ``ack``).

        An explicit scope survives the service wrappers: ``scoped("ack")``
        around a ``charm_transport`` call applies the ``ack`` rule, not
        ``charm``.
        """
        prev, self._scope = self._scope, scope
        try:
            yield
        finally:
            self._scope = prev

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self, fabric: "Fabric") -> None:
        """Shadow the fabric's transport services with faulting wrappers."""
        if self.fabric is not None:
            raise RuntimeError("FaultInjector is already attached to a fabric")
        self.fabric = fabric
        sim = self.sim
        plan = self.plan
        orig_transfer = fabric.transfer
        orig_charm = fabric.charm_transport
        orig_put = fabric.direct_put

        def transfer(src, dst, wire_bytes, start, pre, alpha, beta, cb,
                     ser_extra=0.0, lat_extra=0.0):
            scope = self._scope
            rule = plan.rule(scope)
            if rule.active:
                cb = self._filter(scope, rule, src, dst, cb)
            return orig_transfer(src, dst, wire_bytes, start, pre, alpha,
                                 beta, cb, ser_extra, lat_extra)

        def charm_transport(src, dst, payload_bytes, start, cb):
            prev = self._scope
            # An explicitly set scope (ack) wins over the service default.
            self._scope = "charm" if prev == "raw" else prev
            try:
                return orig_charm(src, dst, payload_bytes, start, cb)
            finally:
                self._scope = prev

        def direct_put(src, dst, nbytes, start, cb):
            prev = self._scope
            self._scope = "put" if prev == "raw" else prev
            try:
                return orig_put(src, dst, nbytes, start, cb)
            finally:
                self._scope = prev

        fabric.transfer = transfer  # type: ignore[method-assign]
        fabric.charm_transport = charm_transport  # type: ignore[method-assign]
        fabric.direct_put = direct_put  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # The per-transfer fault pipeline
    # ------------------------------------------------------------------

    def _filter(
        self, scope: str, rule: FaultRule, src: int, dst: int,
        cb: Callable[[], None],
    ) -> Callable[[], None]:
        """Draw this transfer's faults (fixed order: stall, drop, dup,
        delay) and return the possibly transformed delivery callback."""
        sim = self.sim
        fabric = self.fabric
        if self._hit(scope, "stall", rule.stall):
            # Freeze the sender's injection port: this transfer (charged
            # at issue, below) and every later one queue behind it.
            node = fabric.topology.node_of(src)
            free = fabric._tx_free
            free[node] = max(free[node], sim.now) + rule.stall_time
            self._note(scope, "stall")
        if self._hit(scope, "drop", rule.drop):
            self._note(scope, "drop")
            return _dropped
        if self._hit(scope, "dup", rule.dup):
            gap = self._jitter(scope, "dup", rule.delay_mean)
            inner = cb

            def duplicated() -> None:
                inner()
                sim.schedule(gap, inner)

            cb = duplicated
            self._note(scope, "dup")
        if self._hit(scope, "delay", rule.delay):
            jitter = self._jitter(scope, "delay", rule.delay_mean)
            inner2 = cb

            def delayed() -> None:
                sim.schedule(jitter, inner2)

            cb = delayed
            self._note(scope, "delay")
        return cb


def _dropped() -> None:
    """Delivery callback of a dropped transfer (bytes sent, never seen)."""


class ProcFaultInjector:
    """Realizes a :class:`~repro.faults.plan.ProcFaultPlan` inside one
    shard worker process.

    Built post-fork by the worker from ``rt.proc_faults``; rules fire
    at epoch barriers (``at_barrier`` is called once per round,
    just before the worker reports its barrier state, so the
    coordinator observes the failure exactly where a real mid-epoch
    death would surface: on the next pipe read).  One-shot rules apply
    only to incarnation 0, so a supervised replacement does not re-die
    during its deterministic replay; ``every_incarnation`` rules
    re-fire and walk the run down the degradation ladder.
    """

    def __init__(self, plan, shard_id: int, incarnation: int) -> None:
        self.rules = plan.for_shard(shard_id, incarnation)

    def at_barrier(self, round_no: int) -> None:
        import os
        import signal
        import time

        for r in self.rules:
            if r.kind == "slow":
                time.sleep(r.slow_s)
            elif round_no == r.at_round:
                if r.kind == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                else:  # hang: wedge, ignoring the supervisor's SIGTERM
                    signal.signal(signal.SIGTERM, signal.SIG_IGN)
                    while True:  # pragma: no cover - killed externally
                        time.sleep(3600)
