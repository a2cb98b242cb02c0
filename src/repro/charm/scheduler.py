"""Scheduler queue and direct-delivery items.

The message-driven scheduler on each PE owns a FIFO
:class:`SchedulerQueue`.  Queue occupancy is tracked because it is a
first-order effect in the paper: finer-grained decompositions put more
messages in flight, raising queue occupancy and hence total scheduling
overhead — the overhead CkDirect bypasses.

:class:`DirectItem` models work delivered *around* the scheduler
queue: on Blue Gene/P the DCMF receive-completion callback invokes the
CkDirect user callback directly, paying the low-level handler cost but
no scheduling cost.

:class:`PollWatchdog` is the reliability layer's last line of defence:
a periodic simulated-time scan over puts that were issued but never
resolved — the handles whose sentinel never flips.  It exists only on
runtimes built with a fault plan; a clean runtime never constructs one.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import ReliabilityParams
    from .runtime import Runtime


class SchedulerQueue(deque):
    """FIFO of pending messages with occupancy statistics.

    The queue is a ``deque`` itself, so the scheduler's length and
    truth tests are native.  The PE keeps the statistics where it
    touches the queue: :meth:`PE.enqueue <repro.charm.pe.PE.enqueue>`
    appends and counts, and the scheduler pass takes the *oldest*
    message and adds the depth it saw to ``occupancy_sum``.
    """

    __slots__ = ("enqueued", "max_occupancy", "occupancy_sum", "dequeues")

    def __init__(self) -> None:
        super().__init__()
        self.enqueued = 0
        self.dequeues = 0
        self.max_occupancy = 0
        self.occupancy_sum = 0  # summed at dequeue: mean = sum/dequeues


class DirectItem:
    """A completion delivered around the scheduler (BG/P CkDirect path).

    ``cost`` is charged on the PE before ``fn`` runs; ``fn`` executes
    in the PE's context and may itself charge further time or send.
    """

    __slots__ = ("cost", "fn", "trace_eid")

    def __init__(self, cost: float, fn: Callable[[], None]) -> None:
        self.cost = cost
        self.fn = fn
        #: causing timeline event (the put-completion instant) — None untraced.
        self.trace_eid = None


class PollWatchdog:
    """Detects reliable puts whose completion never became observable.

    Scans ``rt._reliable_inflight`` every ``watchdog_period`` of
    simulated time.  Three situations, three remedies:

    * **delivered but unacked** — the receiver finished (its
      ``last_delivered_seq`` caught up) yet the sender's ack was lost:
      re-send the ack.  Retried every tick until one lands, so lost
      acks can never wedge the sender's bookkeeping.
    * **torn landing** — the payload is present but the sentinel word
      never flipped, so the poll sweep is blind to it: repair locally
      (:meth:`CkDirectHandle.recover_torn`).  Fires at most once per
      (handle, put) — the once-per-stall guarantee the tests pin down.
    * **nothing landed** — the delivery was lost or is extremely late:
      pull the sender's pending retransmit timeout forward instead of
      waiting out a long exponential backoff.  Also once per put.

    The tick only re-schedules itself while unresolved puts exist —
    message-driven programs terminate by the event heap falling silent,
    and a free-running periodic event would keep the simulation alive
    forever.
    """

    def __init__(self, rt: "Runtime", params: "ReliabilityParams") -> None:
        self.rt = rt
        self.params = params
        self.fires = 0  # stall escalations (not ack re-sends)
        self._scheduled = False

    def arm(self) -> None:
        """Ensure a tick is pending (called whenever a put goes in flight)."""
        if not self._scheduled:
            self._scheduled = True
            self.rt.sim.schedule(self.params.watchdog_period, self._tick)

    def _tick(self) -> None:
        self._scheduled = False
        rt = self.rt
        inflight = rt._reliable_inflight
        if not inflight:
            return
        from ..ckdirect import api as ckapi  # circular at import time

        now = rt.sim.now
        timeout = self.params.watchdog_timeout
        for handle in list(inflight.values()):
            seq = handle.put_seq
            if handle.last_delivered_seq >= seq:
                # Receiver-side done; only the ack went missing.
                rt.trace.count("ckdirect.ack_resends")
                ckapi._send_ack(handle, seq)
                continue
            if now - handle.put_issue_time < timeout:
                continue
            if handle.watchdog_fired_seq >= seq:
                continue  # already escalated this put once
            handle.watchdog_fired_seq = seq
            self.fires += 1
            ckapi._watchdog_recover(handle, seq)
        if rt._reliable_inflight:
            self.arm()
