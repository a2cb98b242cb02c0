"""Blue Gene/P fabric model (DCMF two-sided transport on a 3D torus).

The paper's BG/P CkDirect (§2.2) is built on DCMF's *two-sided*
``DCMF_Send`` — the one-sided primitives were in flux — so it is **not
zero-copy**; its advantage over default Charm++ comes from skipping the
Charm++ envelope, allocation, scheduler queue, and entry-method
dispatch, with completion signalled by DCMF's receive-side callback
rather than polling.

Model structure:

* ``DCMF_Send`` costs a software issue, a base latency (a cheaper one
  for *short* messages below 224 bytes, whose receipt handler copies
  the payload itself), per-hop torus latency from the
  :class:`~repro.network.topology.Torus3D`, and a per-byte cost at one
  torus-link rate.
* The receive-side DCMF handler cost is exposed through
  :meth:`recv_handler_cost` so both the default-message path and the
  CkDirect path charge the same low-level handler, exactly as on the
  real machine.
* A CkDirect put carries an Info header of
  :attr:`BGPParams.info_qwords_ckdirect` quad words (the paper sends
  the receive-buffer pointer, callback, callback data, and request
  buffer in the Info to avoid lookup tables) — those bytes ride the
  wire with the payload.
* There is *no* rendezvous/RDMA crossover: the supporting protocol was
  not installed on Surveyor (paper §3), so per-byte cost is a single
  rate at all sizes.
"""

from __future__ import annotations

from typing import Callable

from .base import Fabric, FabricError
from .params import BGPParams


class BGPFabric(Fabric):
    """3D-torus Blue Gene/P with DCMF active-message transport.

    By default contention is modelled at node granularity (per-node
    injection/ejection occupancy with the six-link aggregate factor).
    :meth:`enable_link_contention` switches to per-link modelling:
    transfers follow dimension-order (x, then y, then z) minimal-path
    routes and serialize on each individual torus link they traverse —
    heavier to simulate, but it exposes path conflicts (e.g. two flows
    sharing one +x link) that node-granularity cannot."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not isinstance(self.p, BGPParams):
            raise FabricError(
                f"machine {self.machine.name!r} does not carry BGPParams"
            )
        self._link_free: dict = {}
        self._link_contention = False

    # ------------------------------------------------------------------
    # Optional per-link contention
    # ------------------------------------------------------------------

    def enable_link_contention(self, on: bool = True) -> None:
        """Switch between node-granularity and per-link contention.

        Per-link routes read and update a global link-occupancy map in
        send order, which the sharded engine cannot partition; enabling
        contention therefore drops back to the serial legacy engine.
        """
        self._link_contention = bool(on)
        if on and self._engine:
            self._engine = False

    def min_remote_latency(self) -> float:
        """Cross-node latency floor: the cheaper short-message alpha
        plus one torus hop (every cross-node route crosses >= 1 link)."""
        return min(self.p.alpha, self.p.alpha_short) + self.p.hop_latency

    def route(self, src_node: int, dst_node: int):
        """Dimension-order minimal route: the directed links crossed.

        Each link is identified as ``(node, axis, direction)`` — the
        outgoing link of ``node`` along ``axis`` in ``direction``
        (+1/-1), taking the shorter way around each torus dimension.
        """
        topo = self.topology
        links = []
        cur = list(topo.coords(src_node))
        dst = topo.coords(dst_node)
        for axis, dim in enumerate(topo.dims):
            while cur[axis] != dst[axis]:
                fwd = (dst[axis] - cur[axis]) % dim
                direction = 1 if fwd <= dim - fwd else -1
                X, Y, Z = topo.dims
                node = cur[0] + X * (cur[1] + Y * cur[2])
                links.append((node, axis, direction))
                cur[axis] = (cur[axis] + direction) % dim
        return links

    def transfer(self, src, dst, wire_bytes, start, pre, alpha, beta, cb,
                 ser_extra=0.0, lat_extra=0.0):
        """Point-to-point transfer (see Fabric.transfer)."""
        if not self._link_contention or self.topology.same_node(src, dst):
            return super().transfer(src, dst, wire_bytes, start, pre, alpha,
                                    beta, cb, ser_extra, lat_extra)
        # Per-link model: the flow holds every link of its route for
        # its streaming time; it cannot start before the most-loaded
        # link frees up (wormhole-style bottleneck approximation).
        stream = wire_bytes * beta + lat_extra
        occ = wire_bytes * beta + ser_extra  # full link rate per link
        links = self.route(self.topology.node_of(src), self.topology.node_of(dst))
        t0 = start + pre
        ready = max([t0] + [self._link_free.get(l, 0.0) for l in links])
        for l in links:
            self._link_free[l] = ready + occ
        delivery = ready + alpha + len(links) * self.hop_latency + stream
        self.trace.count("net.transfers")
        self.trace.count("net.bytes", wire_bytes)
        self.trace.count("bgp.link_routed")
        self.sim.at(delivery, cb)
        return delivery

    # ------------------------------------------------------------------
    # The underlying DCMF primitive
    # ------------------------------------------------------------------

    def dcmf_send(
        self,
        src: int,
        dst: int,
        total_bytes: int,
        start: float,
        cb: Callable[[], None],
        info_qwords: int = 0,
    ) -> float:
        """One ``DCMF_Send``: issue + torus traversal + delivery callback.

        Below ``short_max`` bytes the short-message fast path applies:
        a cheaper base latency, and the receipt handler does the copy.
        """
        p = self.p
        wire = total_bytes + info_qwords * p.quad_word
        if total_bytes < p.short_max:
            alpha = p.alpha_short
            self.trace.counters["bgp.dcmf_short"] += 1
        else:
            alpha = p.alpha
            self.trace.counters["bgp.dcmf_normal"] += 1
        return self.transfer(src, dst, wire, start, p.issue_overhead, alpha,
                             p.beta, cb)

    # ------------------------------------------------------------------
    # Transport services
    # ------------------------------------------------------------------

    def recv_handler_cost(self, total_bytes: int) -> float:
        """Receive-side low-level handler cost for a message size."""
        p = self.p
        return p.handler_short if total_bytes < p.short_max else p.handler_normal

    def charm_transport(
        self, src: int, dst: int, payload_bytes: int, start: float, cb: Callable[[], None]
    ) -> float:
        """Default Charm++ message: envelope rides the wire with the data."""
        total = payload_bytes + self.machine.charm.header_bytes
        self.trace.counters["bgp.charm_msg"] += 1
        return self.dcmf_send(src, dst, total, start, cb)

    def direct_put(
        self, src: int, dst: int, nbytes: int, start: float, cb: Callable[[], None]
    ) -> float:
        """CkDirect put: a DCMF_Send of the bare payload plus the
        two-quad-word Info header carrying the DCMF context (§2.2)."""
        self.trace.counters["bgp.ckdirect_put"] += 1
        return self.dcmf_send(
            src, dst, nbytes, start, cb,
            info_qwords=self.p.info_qwords_ckdirect,
        )
