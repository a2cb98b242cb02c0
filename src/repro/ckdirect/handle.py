"""CkDirect channel handles and the channel state machine.

A handle represents one persistent, one-way, one-sided channel between
a sender buffer and a receiver buffer (paper §2).  The state machine
encodes the usage contract the paper states in prose, and the strict
checks turn silent data races into loud errors:

::

            create_handle (+assoc_local)
                     │
                     ▼
      ┌─────────► ARMED ── put ──► IN_FLIGHT ── delivery ──► DELIVERED
      │              ▲                                            │
      │   ready_poll_q│                                  callback │
      │              │                                      fired │
      │            MARKED ◄── ready_mark ──── CONSUMED ◄──────────┘
      │                                          │
      └────────────── ready (mark + poll) ───────┘

* ``put`` is legal from **ARMED** or **MARKED** (data may arrive while
  un-polled; ``ready_poll_q`` then finds it already there — §2.1).
  A put from IN_FLIGHT violates the one-message-in-flight rule; a put
  from DELIVERED/CONSUMED would overwrite data the receiver has not
  finished with — exactly the bug the application-level synchronization
  must prevent, so strict mode raises :class:`ChannelStateError`.
* On Blue Gene/P ``ready`` has no effect in the paper's implementation;
  completion re-arms the channel, so ``put`` from CONSUMED is legal
  there (see :mod:`repro.ckdirect.api`).

The out-of-band sentinel is real: for numpy-backed receive buffers the
final element is set to the user's out-of-band value on arm/mark, and
arrival is (also) observable as that element changing — tests verify
the mechanism end to end, including the user-contract violation where
transferred data itself equals the sentinel.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from ..charm.callback import CkCallback
from ..charm.errors import (  # re-exported for back-compat
    ChannelStateError,
    CkDirectError,
    PutRaceError,
    SentinelError,
)
from ..util.buffers import Buffer

if TYPE_CHECKING:  # pragma: no cover
    from ..charm.pe import PE
    from ..charm.runtime import Runtime

#: Debug-mode use-before-ready check (on by default): a put landing in
#: a buffer whose sentinel was consumed but not re-marked raises
#: :class:`~repro.charm.errors.PutRaceError` instead of silently
#: overwriting data the receiver still owns.  Flip off to model the
#: real hardware, which performs the errant write without complaint.
RACE_CHECK = True


class ChannelState(enum.Enum):
    """Lifecycle states of a CkDirect channel (see module diagram)."""
    ARMED = "armed"  # sentinel set; being polled (or BG/P ready)
    IN_FLIGHT = "in_flight"  # one put travelling
    DELIVERED = "delivered"  # data landed, callback not yet fired
    CONSUMED = "consumed"  # callback fired; receiver owns the buffer
    MARKED = "marked"  # sentinel re-set but not yet polled (IB)


UserCallback = Union[Callable[[Any], None], CkCallback]


class CkDirectHandle:
    """One persistent one-sided channel (receiver side + sender view).

    In the real system the handle struct is copied to the sender in a
    message; in this single-process simulation both sides share the
    object (the runtime still *transfers* it through a real message in
    the examples, preserving the setup protocol of Figure 1).
    """

    __slots__ = (
        "hid",
        "rt",
        "recv_pe",
        "recv_buffer",
        "oob",
        "callback",
        "cbdata",
        "state",
        "src_pe",
        "src_buffer",
        "arrived",
        "puts_completed",
        "bytes_received",
        "name",
        "remote",
        "trace_put_eid",
        "trace_eid",
        # Reliability-layer state (inert unless the runtime carries a
        # ReliabilityParams — see repro.ckdirect.api._reliable_put).
        "sentinel_armed",
        "put_seq",
        "last_delivered_seq",
        "acked_seq",
        "attempt",
        "degraded",
        "put_issue_time",
        "rto_event",
        "watchdog_fired_seq",
        "torn_landed",
        "_torn_true_last",
    )

    def __init__(
        self,
        rt: "Runtime",
        recv_pe: "PE",
        recv_buffer: Buffer,
        oob: Any,
        callback: UserCallback,
        cbdata: Any = None,
        name: str = "",
    ) -> None:
        self.hid = rt._alloc_hid()
        self.rt = rt
        self.recv_pe = recv_pe
        self.recv_buffer = recv_buffer
        self.oob = oob
        self.callback = callback
        self.cbdata = cbdata
        self.state = ChannelState.ARMED
        self.src_pe: Optional["PE"] = None
        self.src_buffer: Optional[Buffer] = None
        self.arrived = False
        self.puts_completed = 0
        self.bytes_received = 0
        self.name = name or f"chan{self.hid}"
        #: True on a sender-side *proxy* of a channel whose receive
        #: buffer lives on another shard of a sharded run (see
        #: repro.sim.parallel).  Proxy puts skip the local state
        #: machine — the real handle on the owning shard enforces the
        #: landing-side contract.
        self.remote = False
        #: timeline causality (None untraced): the in-flight put's
        #: issue span, and the completion instant the callback chains to.
        self.trace_put_eid = None
        self.trace_eid = None
        #: True while the receiver has ceded the buffer to the network
        #: (sentinel stamped, callback not yet fired) — the invariant
        #: the use-before-ready race check enforces at delivery.
        self.sentinel_armed = True
        self.put_seq = 0  # sender-side: last sequence number issued
        self.last_delivered_seq = 0  # receiver-side duplicate filter
        self.acked_seq = 0  # sender-side: newest acknowledged put
        self.attempt = 0  # RDMA attempts for the current put
        self.degraded = False  # permanently on the charm_transport path
        self.put_issue_time = 0.0
        self.rto_event = None  # pending retransmit-timeout sim event
        self.watchdog_fired_seq = 0  # once-per-stall watchdog filter
        self.torn_landed = False  # payload present, sentinel lost
        self._torn_true_last = None

    # ------------------------------------------------------------------
    # Sentinel mechanics (real buffers only)
    # ------------------------------------------------------------------

    def stamp_sentinel(self) -> None:
        """Write the out-of-band value into the trailing element."""
        self.sentinel_armed = True
        if not self.recv_buffer.is_virtual:
            self.recv_buffer.set_last(self.oob)

    def sentinel_clear(self) -> bool:
        """True when the trailing element no longer equals the
        out-of-band value — i.e. data has (observably) arrived."""
        if self.recv_buffer.is_virtual:
            return self.arrived
        return bool(self.recv_buffer.get_last() != self.oob)

    # ------------------------------------------------------------------
    # Delivery-side transitions (driven by the api module)
    # ------------------------------------------------------------------

    def _check_landing(self) -> None:
        """Use-before-ready race check, at the moment a put lands.

        The state machine catches misuse at *issue* time, but real RDMA
        lands whatever was posted: a write arriving after the receiver
        consumed the buffer and before ``ready_mark`` silently destroys
        data the receiver still owns.  With :data:`RACE_CHECK` on
        (default) that landing raises instead.
        """
        if RACE_CHECK and not self.sentinel_armed:
            raise PutRaceError(
                f"{self.name}: a put landed while the receiver owns the "
                "buffer (sentinel consumed, ready_mark not yet called) — "
                "the application's phase synchronization has a race"
            )

    def deliver(self) -> None:
        """The put's last byte arrived: land the data, flip state."""
        assert self.state is ChannelState.IN_FLIGHT or True  # see api.put
        self._check_landing()
        self.torn_landed = False
        if self.src_buffer is not None:
            self.recv_buffer.copy_from(self.src_buffer)
        if not self.recv_buffer.is_virtual and not self.sentinel_clear():
            raise SentinelError(
                f"{self.name}: transferred data ends with the out-of-band "
                f"value {self.oob!r}; the user contract (\"a pattern that "
                "will never appear as received data\") is violated and the "
                "receiver could never detect this message"
            )
        self.arrived = True
        self.state = ChannelState.DELIVERED
        self.puts_completed += 1
        self.bytes_received += self.recv_buffer.nbytes

    # ------------------------------------------------------------------
    # Torn-sentinel landings (fault-injection path only)
    # ------------------------------------------------------------------

    def deliver_torn(self) -> None:
        """Land the payload but lose the trailing sentinel word.

        Models the RDMA failure the paper's completion scheme is blind
        to: every byte except the last word arrives, so the sentinel
        still reads as the out-of-band value and the poll sweep can
        never detect the message.  The true trailing value is parked in
        ``_torn_true_last`` so a watchdog :meth:`recover_torn` (or a
        full retransmit) can complete the delivery.  State stays
        IN_FLIGHT and ``arrived`` stays False — to both endpoints the
        put simply looks lost.
        """
        self._check_landing()
        if self.src_buffer is not None:
            self.recv_buffer.copy_from(self.src_buffer)
        if not self.recv_buffer.is_virtual:
            self._torn_true_last = self.recv_buffer.get_last()
            self.recv_buffer.set_last(self.oob)  # the word that never landed
        self.torn_landed = True

    def recover_torn(self) -> None:
        """Repair a torn landing locally (watchdog recovery path).

        The retransmit protocol carries the payload's true trailing
        word in its control header, so the watchdog can finish the
        delivery without moving the payload again.
        """
        if not self.torn_landed:
            raise CkDirectError(f"{self.name}: recover_torn without a torn landing")
        if not self.recv_buffer.is_virtual:
            self.recv_buffer.set_last(self._torn_true_last)
        self._torn_true_last = None
        self.torn_landed = False
        self.arrived = True
        self.state = ChannelState.DELIVERED
        self.puts_completed += 1
        self.bytes_received += self.recv_buffer.nbytes

    def fire(self) -> None:
        """Run the user callback (a plain function call — no scheduling).

        Invoked by the PE's poll sweep (Infiniband) or by the DCMF
        completion path (BG/P), already inside the PE's context.
        """
        self.arrived = False
        self.sentinel_armed = False  # receiver owns the buffer again
        self.state = ChannelState.CONSUMED
        if isinstance(self.callback, CkCallback):
            self.callback.invoke(self.rt, self.cbdata)
        else:
            self.callback(self.cbdata)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CkDirectHandle {self.name} #{self.hid} {self.state.value} "
            f"{self.recv_buffer.nbytes}B -> pe{self.recv_pe.rank}>"
        )
