"""Processing elements and the message-driven scheduler loop.

Each :class:`PE` models one core running the Charm++ scheduler.  One
*iteration* of the loop, in simulated time:

1. **Direct completions** (BG/P CkDirect): drain items delivered
   around the queue, charging the low-level handler + callback cost.
2. **Poll sweep** (Infiniband CkDirect): when the polling queue is
   non-empty, charge ``poll_base + poll_per_handle × occupancy``;
   any handle whose buffer has received data (its trailing double
   word no longer equals the out-of-band value) is removed, charged
   ``detect_overhead + callback_overhead``, and its user callback runs
   inline — *no scheduling overhead*, exactly the paper's point.
3. **One message**: dequeue, charge ``sched_overhead`` plus the
   receive-side costs (entry dispatch, RTS receive handler, the BG/P
   saturating receive copy), and run the entry method.

The loop keeps iterating while work remains; otherwise the PE goes
idle and is *kicked* by the next delivery.  All costs accumulate on a
local cursor so that sends issued mid-entry start at the correct
simulated instant, and a busy PE never begins new work before its
cursor (``busy_until``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from ..projections.events import (
    CAT_CKDIRECT,
    CAT_ENTRY,
    CAT_IDLE,
    CAT_MSG,
    CAT_RTS,
    CAT_SCHED,
)
from ..sim import Entity
from .errors import ContextError
from .message import Message
from .scheduler import DirectItem, SchedulerQueue

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime


class PE(Entity):
    """One simulated core with a message-driven scheduler."""

    def __init__(self, rt: "Runtime", rank: int) -> None:
        super().__init__(rt.sim, name=f"pe{rank}")
        self.rt = rt
        self.rank = rank
        self.queue = SchedulerQueue()
        #: RTS-internal messages (reduction partials, broadcast tree
        #: stages) run at high priority, as in the real runtime —
        #: otherwise a collective release staircases behind long
        #: application entries on intermediate tree PEs.
        self.internal_queue = SchedulerQueue()
        self.direct_q: Deque[DirectItem] = deque()
        #: CkDirect polling queue: insertion-ordered handles (IB path).
        self.pollq: Dict[int, object] = {}
        self.busy_until = 0.0
        self.busy_time = 0.0  # total occupied simulated time
        self._loop_scheduled = False
        self._executing = False
        self._cursor = 0.0

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------

    @property
    def cursor(self) -> float:
        """The PE's local clock while executing (== busy frontier)."""
        return self._cursor if self._executing else max(self.now, self.busy_until)

    def charge(self, seconds: float) -> None:
        """Consume ``seconds`` of this PE's time (compute or sw cost)."""
        if seconds < 0:
            raise ContextError(f"negative charge: {seconds!r}")
        if not self._executing:
            raise ContextError("charge() outside of an execution context")
        self._cursor += seconds

    # ------------------------------------------------------------------
    # Delivery interfaces (called by the runtime / fabric callbacks)
    # ------------------------------------------------------------------

    def enqueue(self, msg: Message) -> None:
        """Deliver a message into this PE's queue (internal or app)."""
        if msg.is_internal:
            self.internal_queue.push(msg)
        else:
            self.queue.push(msg)
        tr = self.rt.tracer
        if tr is not None:
            msg.trace_eid = tr.instant(
                self.rt._trace_run, self.rank, CAT_MSG,
                f"enqueue:{msg.method}", self.now, cause=msg.trace_eid,
                args={"msg": msg.id, "bytes": msg.nbytes},
            )
        self.kick()

    def push_direct(self, item: DirectItem) -> None:
        """Deliver a scheduler-bypassing completion item."""
        self.direct_q.append(item)
        self.kick()

    def poll_register(self, handle) -> None:
        """Insert a CkDirect handle into the polling queue."""
        self.pollq[handle.hid] = handle
        if handle.arrived:  # data landed before the handle was re-armed
            self.kick()

    def poll_remove(self, handle) -> None:
        """Remove a handle from the polling queue (idempotent)."""
        self.pollq.pop(handle.hid, None)

    def notify_arrival(self) -> None:
        """A put completed into one of this PE's buffers; wake to poll."""
        self.kick()

    # ------------------------------------------------------------------
    # The scheduler loop
    # ------------------------------------------------------------------

    def kick(self) -> None:
        """Ensure a scheduler iteration runs once the PE is free."""
        if self._loop_scheduled or self._executing:
            return
        self._loop_scheduled = True
        self.sim.at(max(self.now, self.busy_until), self._iterate)

    def _has_detectable(self) -> bool:
        return any(h.arrived for h in self.pollq.values())

    def _iterate(self) -> None:
        self._loop_scheduled = False
        self._cursor = max(self.now, self.busy_until)
        start = self._cursor
        tr = self.rt.tracer
        if tr is not None and self.busy_until > 0.0 and start > self.busy_until:
            # The PE sat idle between its last busy frontier and this
            # wake-up — the scheduling gap a timeline view exposes.
            tr.span(self.rt._trace_run, self.rank, CAT_IDLE, "idle",
                    self.busy_until, start)
        self._executing = True
        try:
            self._drain_direct()
            self._poll_sweep()
            self._drain_internal()
            self._process_one_message()
        finally:
            self._executing = False
            self.busy_until = self._cursor
            self.busy_time += self._cursor - start
        if self.queue or self.internal_queue or self.direct_q or self._has_detectable():
            self.kick()

    def _drain_direct(self) -> None:
        tr = self.rt.tracer
        while self.direct_q:
            item = self.direct_q.popleft()
            t0 = self._cursor
            self.charge(item.cost)
            eid = None
            if tr is not None:
                eid = tr.next_id()
                tr.push(eid)
            self.rt._enter_pe(self)
            try:
                item.fn()
            finally:
                self.rt._exit_pe()
                if tr is not None:
                    tr.pop()
                    tr.span(self.rt._trace_run, self.rank, CAT_CKDIRECT,
                            "direct_callback", t0, self._cursor,
                            cause=item.trace_eid, eid=eid)
            self.rt.trace.count("pe.direct_completions")

    def _poll_sweep(self) -> None:
        if not self.pollq:
            return
        ck = self.rt.machine.ckdirect
        tr = self.rt.tracer
        t0 = self._cursor
        self.charge(ck.poll_base + ck.poll_per_handle * len(self.pollq))
        if tr is not None:
            tr.span(self.rt._trace_run, self.rank, CAT_CKDIRECT, "poll_sweep",
                    t0, self._cursor, args={"occupancy": len(self.pollq)})
        self.rt.trace.count("pe.poll_sweeps")
        self.rt.trace.sample("pe.pollq_occupancy", len(self.pollq))
        arrived = [h for h in self.pollq.values() if h.arrived]
        for handle in arrived:
            del self.pollq[handle.hid]
            t0 = self._cursor
            self.charge(ck.detect_overhead + ck.callback_overhead)
            eid = None
            if tr is not None:
                eid = tr.next_id()
                tr.push(eid)
            self.rt._enter_pe(self)
            try:
                handle.fire()
            finally:
                self.rt._exit_pe()
                if tr is not None:
                    tr.pop()
                    tr.span(self.rt._trace_run, self.rank, CAT_CKDIRECT,
                            f"poll_callback:{handle.name}", t0, self._cursor,
                            cause=handle.trace_eid, eid=eid)
            self.rt.trace.count("pe.poll_detections")

    def _drain_internal(self) -> None:
        """High-priority RTS messages: all pending ones run before the
        next application message (each still pays dispatch cost)."""
        while self.internal_queue:
            self._execute_message(self.internal_queue.pop(), len(self.internal_queue))

    def _process_one_message(self) -> None:
        if not self.queue:
            return
        self._execute_message(self.queue.pop(), len(self.queue))

    def _execute_message(self, msg: Message, remaining: int) -> None:
        charm = self.rt.machine.charm
        cost = (
            charm.sched_overhead
            + charm.sched_per_queued * remaining
            + charm.handler_overhead
            + charm.recv_overhead
            + self.rt.fabric.recv_handler_cost(msg.nbytes + charm.header_bytes)
        )
        if charm.rts_copy_per_byte and msg.nbytes and not msg.is_internal:
            exposed = min(msg.nbytes, charm.rts_copy_cap) if charm.rts_copy_cap else msg.nbytes
            cost += exposed * charm.rts_copy_per_byte
        tr = self.rt.tracer
        if tr is None:
            self.charge(cost)
            self.rt.trace.count("pe.messages_executed")
            self.rt._deliver(self, msg)
            return
        t0 = self._cursor
        self.charge(cost)
        self.rt.trace.count("pe.messages_executed")
        dispatch_eid = tr.span(
            self.rt._trace_run, self.rank, CAT_SCHED,
            f"dispatch:{msg.method}", t0, self._cursor,
            cause=msg.trace_eid, args={"msg": msg.id, "queued": remaining},
        )
        t1 = self._cursor
        eid = tr.next_id()
        tr.push(eid)
        try:
            self.rt._deliver(self, msg)
        finally:
            tr.pop()
            tr.span(
                self.rt._trace_run, self.rank,
                CAT_RTS if msg.is_internal else CAT_ENTRY,
                msg.method, t1, self._cursor, cause=dispatch_eid, eid=eid,
                args={"array": msg.array_id, "index": list(msg.index)},
            )
