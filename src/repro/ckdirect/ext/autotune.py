"""Persistent-channel discovery — the paper's final future-work item
(§6): "the eventual inclusion of CkDirect into an automatic learning
framework which will create persistent channels where appropriate".

:class:`ChannelAdvisor` observes an application's ordinary message
traffic and finds the flows a CkDirect channel would pay for:

* a **flow** is a (sender element, receiver element, entry method)
  triple;
* a flow is a channel *candidate* once it repeats with a **stable
  payload size** for at least ``min_repeats`` consecutive observations
  (the paper's precondition: "iterative applications with stable
  communication patterns");
* for each candidate the advisor estimates the per-iteration saving
  from the machine's calibrated parameters — exactly the costs the
  evaluation shows CkDirect eliding: the envelope header on the wire,
  the scheduler dispatch + entry overhead, the rendezvous registration
  (Infiniband, large messages), and the RTS receive copy (BG/P) — and
  the number of iterations needed to amortize the one-time channel
  setup.

Attach with :meth:`ChannelAdvisor.attach`; it wraps ``Runtime.send``
non-invasively, so applications run unmodified while being profiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...charm.runtime import Runtime
from ...network.infiniband import InfinibandFabric

FlowKey = Tuple[int, Tuple[int, ...], Tuple[int, ...], str]  # array, src, dst, method


@dataclass
class FlowStats:
    """Observation record for one message flow."""

    count: int = 0
    last_nbytes: Optional[int] = None
    stable_run: int = 0  # consecutive observations at last_nbytes
    total_bytes: int = 0

    def observe(self, nbytes: int) -> None:
        """Record one message of this flow."""
        self.count += 1
        self.total_bytes += nbytes
        if nbytes == self.last_nbytes:
            self.stable_run += 1
        else:
            self.last_nbytes = nbytes
            self.stable_run = 1


@dataclass
class ChannelCandidate:
    """One flow the advisor recommends converting to a channel."""

    array_id: int
    src_index: Tuple[int, ...]
    dst_index: Tuple[int, ...]
    method: str
    nbytes: int
    observations: int
    saving_per_message: float  # seconds
    setup_cost: float  # seconds (createHandle + assocLocal)

    @property
    def amortization_messages(self) -> float:
        """Messages needed before the channel has paid for itself."""
        if self.saving_per_message <= 0:
            return float("inf")
        return self.setup_cost / self.saving_per_message

    def __str__(self) -> str:  # pragma: no cover - formatting
        return (
            f"array{self.array_id} {self.src_index}->{self.dst_index}"
            f".{self.method} ({self.nbytes}B x{self.observations}): "
            f"saves {self.saving_per_message * 1e6:.2f}us/msg, amortizes "
            f"after {self.amortization_messages:.0f} messages"
        )


class ChannelAdvisor:
    """Observes a runtime's sends and recommends persistent channels."""

    def __init__(self, rt: Runtime, min_repeats: int = 3,
                 min_bytes: int = 256) -> None:
        self.rt = rt
        self.min_repeats = min_repeats
        self.min_bytes = min_bytes
        self.flows: Dict[FlowKey, FlowStats] = {}
        self._orig_send = None
        self._sender_ctx: List = []

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self) -> "ChannelAdvisor":
        """Start observing (idempotent)."""
        if self._orig_send is not None:
            return self
        rt, advisor = self.rt, self
        self._orig_send = rt.send

        def observing_send(array, index, method, args=(), internal=False,
                           nbytes_override=None):
            if not internal and rt.current_pe is not None:
                advisor._record(array, index, method, args)
            return advisor._orig_send(array, index, method, args,
                                      internal, nbytes_override)

        rt.send = observing_send
        return self

    def _record(self, array, index, method, args) -> None:
        from ...charm.message import Payload

        nbytes = sum(
            a.nbytes for a in args
            if isinstance(a, Payload) or hasattr(a, "nbytes")
        )
        if nbytes < self.min_bytes:
            return
        # the sender element is not identified by the runtime directly;
        # key flows by (destination, method, source PE) via the current
        # PE — distinct senders on one PE to one target merge, which is
        # conservative (they would share a channel's amortization).
        src = (self.rt.current_pe.rank,)
        key = (array.id, src, array.normalize_index(index), method)
        self.flows.setdefault(key, FlowStats()).observe(int(nbytes))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _saving_per_message(self, nbytes: int) -> float:
        """Calibrated per-message saving of channel vs message."""
        m = self.rt.machine
        charm, ck = m.charm, m.ckdirect
        # costs the message path pays and the channel skips:
        saving = (
            charm.header_bytes * m.net.beta  # envelope on the wire
            + charm.send_overhead - ck.put_issue  # send-side software
            + charm.sched_overhead + charm.handler_overhead
            + charm.recv_overhead
        )
        # receive-side detection costs the channel *does* pay:
        saving -= ck.poll_base + ck.poll_per_handle + ck.detect_overhead
        saving -= ck.callback_overhead
        if isinstance(self.rt.fabric, InfinibandFabric):
            saving += self.rt.fabric.recv_handler_cost(
                nbytes + charm.header_bytes
            )  # per-message registration, paid once by the channel
        if charm.rts_copy_per_byte:
            exposed = min(nbytes, charm.rts_copy_cap) if charm.rts_copy_cap else nbytes
            saving += exposed * charm.rts_copy_per_byte
        return saving

    def candidates(self) -> List[ChannelCandidate]:
        """Flows worth converting, best saving first."""
        ck = self.rt.machine.ckdirect
        setup = ck.handle_setup + ck.assoc_overhead
        out = []
        for (array_id, src, dst, method), st in self.flows.items():
            if st.stable_run < self.min_repeats or st.last_nbytes is None:
                continue
            saving = self._saving_per_message(st.last_nbytes)
            if saving <= 0:
                continue
            out.append(
                ChannelCandidate(
                    array_id=array_id,
                    src_index=src,
                    dst_index=dst,
                    method=method,
                    nbytes=st.last_nbytes,
                    observations=st.count,
                    saving_per_message=saving,
                    setup_cost=setup,
                )
            )
        out.sort(key=lambda c: -c.saving_per_message * c.observations)
        return out

    def report(self) -> str:
        """Human-readable recommendation summary."""
        cands = self.candidates()
        lines = [
            f"ChannelAdvisor: {len(self.flows)} flows observed, "
            f"{len(cands)} channel candidates"
        ]
        total = 0.0
        for c in cands:
            lines.append("  " + str(c))
            total += c.saving_per_message * c.observations
        lines.append(
            f"  projected total saving so far: {total * 1e6:.1f}us"
        )
        return "\n".join(lines)
