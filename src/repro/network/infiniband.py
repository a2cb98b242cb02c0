"""Infiniband (Reliable Connection) fabric model.

Implements the protocol structure the paper describes for the Charm++
Infiniband machine layer (§2.1, §3):

* messages up to :attr:`IBParams.eager_max` total bytes go **eager** —
  one software-handled transfer;
* messages up to :attr:`IBParams.rdma_threshold` use the **packetized
  two-sided** protocol — the payload is chopped into
  :attr:`IBParams.packet_size` packets, each paying a per-packet
  overhead (this is why the default Charm++ per-byte cost in this band
  exceeds the raw RDMA rate, and why the CkDirect gap *grows* through
  this band — paper §3);
* larger messages use **rendezvous RDMA** — a small control-message
  round trip plus destination memory registration whose cost grows
  slowly with size, then an RDMA write at the wire rate (this is the
  protocol switch the paper locates between 20 KB and 30 KB);
* :meth:`direct_put` is a bare **RDMA write**: the buffers were
  registered at channel-setup time, so a put pays only the descriptor
  post and the wire.  Reliable Connection delivers bytes in order, so
  arrival of the last byte implies arrival of the whole message — the
  property the out-of-band polling scheme relies on.

Because the Reliable Connection guarantee is load-bearing for CkDirect
correctness, :class:`InfinibandFabric` also exposes
``force_protocol`` for the protocol-crossover ablation bench.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..projections.events import CAT_NET, NET_TRACK
from .base import Fabric, FabricError
from .params import IBParams

PROTOCOLS = ("eager", "packet", "rendezvous")


class InfinibandFabric(Fabric):
    """Fat-tree Infiniband cluster with RDMA."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not isinstance(self.p, IBParams):
            raise FabricError(
                f"machine {self.machine.name!r} does not carry IBParams"
            )
        self._forced_protocol: Optional[str] = None

    def min_remote_latency(self) -> float:
        """Cross-node latency floor: the base alpha (``pre``, per-hop
        and per-byte terms are all non-negative on the fat tree)."""
        return self.p.alpha

    # ------------------------------------------------------------------
    # Protocol selection
    # ------------------------------------------------------------------

    def protocol_for(self, total_bytes: int) -> str:
        """Which two-sided protocol a message of ``total_bytes`` uses."""
        if self._forced_protocol is not None:
            return self._forced_protocol
        if total_bytes <= self.p.eager_max:
            return "eager"
        if total_bytes <= self.p.rdma_threshold:
            return "packet"
        return "rendezvous"

    def force_protocol(self, protocol: Optional[str]) -> None:
        """Pin the two-sided protocol choice (ablation use only)."""
        if protocol is not None and protocol not in PROTOCOLS:
            raise FabricError(f"unknown protocol {protocol!r}; expected {PROTOCOLS}")
        self._forced_protocol = protocol

    # ------------------------------------------------------------------
    # Transport services
    # ------------------------------------------------------------------

    def charm_transport(
        self, src: int, dst: int, payload_bytes: int, start: float, cb: Callable[[], None]
    ) -> float:
        """Default Charm++ message transport (protocol chosen by size)."""
        total = payload_bytes + self.machine.charm.header_bytes
        proto = self.protocol_for(total)
        self.trace.counters[f"ib.charm.{proto}"] += 1
        if proto == "eager":
            return self.transfer(
                src, dst, total, start,
                pre=self.p.proto_overhead, alpha=self.p.alpha, beta=self.p.beta, cb=cb,
            )
        if proto == "packet":
            npkts = self.packets(total, self.p.packet_size)
            pkt_cost = npkts * self.p.packet_overhead
            return self.transfer(
                src, dst, total, start,
                pre=self.p.proto_overhead, alpha=self.p.alpha, beta=self.p.beta,
                ser_extra=pkt_cost, lat_extra=pkt_cost, cb=cb,
            )
        # Rendezvous RDMA: control round trip, then one RDMA write at
        # the wire rate.  Pinning/registering the destination memory is
        # *CPU work on the receiver* (a per-message cost CkDirect pays
        # only once, at channel setup) and is charged there via
        # recv_handler_cost — for an idle-receiver pingpong the total is
        # identical, but in overlapped applications it is CPU the
        # receiver cannot hide, which is where the paper's stencil and
        # matmul gains come from.
        if self.tracer is not None:
            # The RTS/CTS handshake is folded into rendezvous_rtt (the
            # calibration constant); surface it as a control event so
            # timelines show where the round trip sits.
            self.tracer.instant(
                self.trace_run, NET_TRACK, CAT_NET, "rendezvous_ctrl", start,
                args={"src": src, "dst": dst, "bytes": total,
                      "rtt": self.p.rendezvous_rtt},
            )
        pre = self.p.proto_overhead + self.p.rendezvous_rtt
        return self.transfer(
            src, dst, total, start,
            pre=pre, alpha=self.p.alpha, beta=self.p.beta, cb=cb,
        )

    def recv_handler_cost(self, total_bytes: int) -> float:
        """Receive-side low-level handler cost for a message size."""
        if self._forced_protocol is None and total_bytes > self.p.rdma_threshold:
            return self.p.reg_base + total_bytes * self.p.reg_per_byte
        if self._forced_protocol == "rendezvous":
            return self.p.reg_base + total_bytes * self.p.reg_per_byte
        return 0.0

    def direct_put(
        self, src: int, dst: int, nbytes: int, start: float, cb: Callable[[], None]
    ) -> float:
        """One RDMA write from a pre-registered source to a
        pre-registered destination.  No header, no protocol handshake,
        no registration on the critical path; small writes pay the DMA
        ramp (see :class:`IBParams`)."""
        self.trace.counters["ib.rdma_put"] += 1
        ramp = min(nbytes, self.p.rdma_ramp_cap) * self.p.rdma_ramp_per_byte
        return self.transfer(
            src, dst, nbytes, start,
            pre=0.0, alpha=self.p.alpha, beta=self.p.beta,
            lat_extra=ramp, cb=cb,
        )
