"""Interconnect model base class.

A :class:`Fabric` turns "send B bytes from PE *a* to PE *b* starting at
time *t*" into a delivery event, charging:

* **software pre-cost** on the sender (protocol processing), then
* **NIC injection occupancy** — a *node's* outgoing transfers share
  its network interface; concurrent transfers back-pressure each other
  through per-node ``tx``/``rx`` occupancy.  Occupancy is the transfer's
  streaming time scaled by :meth:`_occupancy_factor`: 1.0 on the
  single-HCA Infiniband nodes (the paper itself points at "a single
  Infiniband connection per node" as the Abe bottleneck), and 1/6 on
  Blue Gene/P, whose node routes over six torus links,
* **wire latency** — base latency plus per-hop latency from the
  topology plus the per-byte streaming time counted once, then
* **NIC ejection occupancy** at the receiver, symmetric with
  injection, so incast patterns (e.g. a reduction root) serialize
  realistically.

For an uncontended transfer the delivery time is exactly
``start + pre + alpha + hops·hop + bytes·beta`` — the pingpong
calibration is independent of the occupancy model.

Intra-node transfers bypass the NIC entirely and use a shared-memory
latency/bandwidth pair.

Subclasses (:class:`~repro.network.infiniband.InfinibandFabric`,
:class:`~repro.network.bluegene.BGPFabric`) implement the three
transport services the upper layers consume:

* ``charm_transport`` — the default Charm++ message path (protocol
  selection happens here),
* ``direct_put`` — the CkDirect data path,
* ``transfer`` — the raw parameterized primitive the simulated MPI
  layers drive with their own flavor constants.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from ..projections.events import CAT_NET, NET_TRACK
from ..sim import Entity, Simulator, Trace
from .params import MachineParams
from .topology import Topology

#: Event priority of the engine-mode arrival-admission wake: it must
#: fire before any ordinary (priority-0) event at the same instant so
#: ejection-port admission order is independent of event seq numbers
#: (which differ across shard counts).
_ADMIT_PRIORITY = -16


class FabricError(RuntimeError):
    """Raised for invalid transfer requests."""


class Fabric(Entity):
    """Base interconnect: NIC serialization + latency accounting."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        machine: MachineParams,
        trace: Optional[Trace] = None,
    ) -> None:
        super().__init__(sim, name=f"fabric:{machine.name}")
        self.topology = topology
        self.machine = machine
        self.trace = trace if trace is not None else Trace()
        #: timeline tracer + run id, attached by the owning runtime
        #: when Projections tracing is on (None = off, zero cost).
        self.tracer = None
        self.trace_run = 0
        n = topology.n_nodes
        self._tx_free = [0.0] * n
        self._rx_free = [0.0] * n
        #: deferred (delivery, cb) pairs while inside a batch() block.
        self._batch: Optional[List[Tuple[float, Callable[[], None]]]] = None
        # --- parallel-engine mode (see repro.sim.parallel) -------------
        #: False = legacy semantics (receiver ejection occupancy charged
        #: at *send* time in global send order).  True = engine
        #: semantics: the rx half of every cross-node transfer is
        #: admitted in canonical head-arrival order, which is the same
        #: at any shard count.
        self._engine = False
        #: descriptor for the transfer about to be issued (set by the
        #: runtime / ckdirect layers immediately before each service
        #: call; consumed and cleared by :meth:`transfer`).
        self._engine_desc = None
        #: heap of in-flight arrival records
        #: ``(head_arrival, dst, src, k, stream, occ, wire_bytes, desc)``.
        #: ``(src, k)`` is unique (each source PE's counter lives in
        #: exactly one shard), so heap order never compares the rest.
        self._records: list = []
        #: per-source-PE monotone transfer counter (deterministic
        #: record tiebreak, identical at any shard count).
        self._send_k: dict = {}
        #: node ranks owned by this shard (None = all; records to other
        #: shards go to the outbox instead of the local heap).
        self._owned_nodes = None
        #: cross-shard records awaiting the next epoch exchange.
        self._outbox: list = []
        #: delivery resolver ``(dst_rank, desc) -> None`` installed by
        #: the runtime when engine mode is enabled.
        self._engine_deliver: Optional[Callable] = None

    # ------------------------------------------------------------------
    # Delivery scheduling (batchable)
    # ------------------------------------------------------------------

    def _schedule_delivery(self, delivery: float, cb: Callable[[], None]) -> None:
        """Create the delivery event now, or defer it to the open batch."""
        if self._batch is None:
            self.sim.at(delivery, cb)
        else:
            self._batch.append((delivery, cb))

    @contextmanager
    def batch(self):
        """Defer delivery-event creation for a burst of transfers.

        Multi-put senders (multicast fan-out, a stencil chare's halo
        puts, multi-packet sends) issue several transfers back to back
        within one entry-method execution; this context collects their
        delivery events and admits them with one
        :meth:`~repro.sim.Simulator.schedule_batch` call on exit.

        Delivery *times* and occupancy accounting are computed exactly
        as in the unbatched path, at issue time.  Because no simulator
        event can fire while the issuing handler is still executing,
        and sequence numbers are assigned in issue order at flush,
        event ordering is unchanged.  Nested use is a no-op (the
        outermost batch flushes).

        ``schedule_batch`` is part of the pluggable event-queue
        surface (:mod:`repro.sim.eventq`): every implementation admits
        the burst atomically with consecutive sequence numbers, so
        batching is ordering-neutral under heap, calendar and
        compiled queues alike.
        """
        if self._batch is not None:  # nested: defer to the outer batch
            yield
            return
        self._batch = []
        try:
            yield
        finally:
            entries, self._batch = self._batch, None
            if entries:
                self.sim.schedule_batch(
                    [(t, cb, ()) for t, cb in entries]
                )

    # ------------------------------------------------------------------
    # Core primitive
    # ------------------------------------------------------------------

    def transfer(
        self,
        src: int,
        dst: int,
        wire_bytes: int,
        start: float,
        pre: float,
        alpha: float,
        beta: float,
        cb: Callable[[], None],
        ser_extra: float = 0.0,
        lat_extra: float = 0.0,
    ) -> float:
        """Schedule a point-to-point transfer; returns projected delivery.

        Parameters
        ----------
        wire_bytes:
            Bytes crossing the wire (payload + protocol headers).
        start:
            Absolute time the sending software initiates the transfer
            (the sender PE's local cursor; must not precede ``sim.now``).
        pre:
            Sender-side software/protocol cost paid before injection.
        alpha / beta:
            Base latency and per-byte cost for this protocol path.
        ser_extra:
            Additional NIC occupancy (e.g. per-packet overheads).
        lat_extra:
            Additional end-to-end latency added to the streaming time
            (per-packet overheads delay delivery as well as occupying
            the NIC).
        cb:
            Invoked (no args) at the delivery instant.
        """
        desc = None
        if self._engine:
            desc, self._engine_desc = self._engine_desc, None
        if src == dst:
            raise FabricError("self-send must be short-circuited by the caller")
        if wire_bytes < 0:
            raise FabricError(f"negative wire_bytes: {wire_bytes}")
        if start < self.sim.now - 1e-15:
            raise FabricError(
                f"transfer start {start!r} precedes simulated now {self.sim.now!r}"
            )
        if self.topology.same_node(src, dst):
            delivery = start + pre + self._shm_alpha() + wire_bytes * self._shm_beta()
            self.trace.count("net.shm_transfers")
            if self.tracer is not None:
                self.tracer.instant(
                    self.trace_run, NET_TRACK, CAT_NET, "shm_transfer", delivery,
                    args={"src": src, "dst": dst, "bytes": wire_bytes},
                )
            self._schedule_delivery(delivery, cb)
            return delivery

        stream = wire_bytes * beta + lat_extra  # streaming (latency) part
        occ = wire_bytes * beta * self._occupancy_factor() + ser_extra
        src_node = self.topology.node_of(src)
        dst_node = self.topology.node_of(dst)
        tx_start = max(start + pre, self._tx_free[src_node])
        self._tx_free[src_node] = tx_start + occ
        head_arrival = tx_start + alpha + self.topology.hops(src, dst) * self._hop_latency()
        self.trace.count("net.transfers")
        self.trace.count("net.bytes", wire_bytes)
        if self._engine:
            # Engine semantics: the tx half (above) runs sender-side at
            # issue; the rx half is deferred until head arrival and
            # admitted in canonical record order by _admit_arrivals, so
            # ejection occupancy is charged identically at any shard
            # count.  The return value is therefore only the
            # contention-free delivery estimate (no engine-mode caller
            # consumes it; MPI, which does, forces the legacy path).
            k = self._send_k.get(src, 0)
            self._send_k[src] = k + 1
            rec = (head_arrival, dst, src, k, stream, occ, wire_bytes,
                   cb if desc is None else desc)
            owned = self._owned_nodes
            if owned is None or dst_node in owned:
                heappush(self._records, rec)
                self.sim.at(head_arrival, self._admit_arrivals,
                            priority=_ADMIT_PRIORITY)
            else:
                if desc is None:
                    raise FabricError(
                        "cross-shard transfer lacks a descriptor; this "
                        "workload must run with the serial engine"
                    )
                self._outbox.append(rec)
            return head_arrival + stream
        rx_start = max(head_arrival, self._rx_free[dst_node])
        delivery = rx_start + stream
        self._rx_free[dst_node] = rx_start + occ
        if self.tracer is not None:
            self.tracer.instant(
                self.trace_run, NET_TRACK, CAT_NET, "transfer", delivery,
                args={"src": src, "dst": dst, "bytes": wire_bytes,
                      "injected": start, "latency": delivery - start},
            )
        self._schedule_delivery(delivery, cb)
        return delivery

    # ------------------------------------------------------------------
    # Parallel-engine mode (see repro.sim.parallel)
    # ------------------------------------------------------------------

    def enable_engine(self, deliver: Callable) -> None:
        """Switch to engine semantics; ``deliver(dst_rank, desc)``
        resolves a transfer descriptor into its receiver-side effect."""
        self._engine = True
        self._engine_deliver = deliver

    def min_remote_latency(self) -> float:
        """Strictly positive floor on cross-node end-to-end latency.

        Every cross-node transfer issued at time *t* arrives no earlier
        than ``t + min_remote_latency()`` (``pre >= 0``, occupancy only
        delays).  This is the conservative lookahead of the parallel
        engine's epoch windows.
        """
        raise NotImplementedError

    def _admit_arrivals(self) -> None:
        """Admit every record whose head has arrived (``ha <= now``).

        Records are drained in canonical ``(ha, dst, src, k)`` order —
        a total order independent of the shard count — so receiver
        ejection occupancy (``_rx_free``) evolves identically whether a
        record was produced locally or exchanged at an epoch barrier.
        One wake is scheduled per record; the first wake at an instant
        drains all records due then, later ones find nothing.
        """
        recs = self._records
        now = self.sim.now
        rx_free = self._rx_free
        node_of = self.topology.node_of
        at = self.sim.at
        tracer = self.tracer
        while recs and recs[0][0] <= now:
            ha, dst, src, _k, stream, occ, wire_bytes, payload = heappop(recs)
            dn = node_of(dst)
            rx_start = rx_free[dn] if rx_free[dn] > ha else ha
            delivery = rx_start + stream
            rx_free[dn] = rx_start + occ
            if tracer is not None:
                tracer.instant(
                    self.trace_run, NET_TRACK, CAT_NET, "transfer", delivery,
                    args={"src": src, "dst": dst, "bytes": wire_bytes},
                )
            if isinstance(payload, tuple):
                at(delivery, self._engine_deliver, dst, payload)
            else:
                at(delivery, payload)

    def take_outbox(self) -> list:
        """Drain the cross-shard records buffered since the last epoch."""
        out, self._outbox = self._outbox, []
        return out

    def admit_remote(self, rec: tuple) -> None:
        """Insert one exchanged record (its ha lies in a future window)."""
        heappush(self._records, rec)
        self.sim.at(rec[0], self._admit_arrivals, priority=_ADMIT_PRIORITY)

    # ------------------------------------------------------------------
    # Machine-specific constants (overridden per fabric)
    # ------------------------------------------------------------------

    def _shm_alpha(self) -> float:
        return self.machine.net.shm_alpha

    def _shm_beta(self) -> float:
        return self.machine.net.shm_beta

    def _hop_latency(self) -> float:
        return 0.0

    def _occupancy_factor(self) -> float:
        """Fraction of a transfer's streaming time that occupies the
        node's NIC resources (see the per-machine ``occupancy_factor``
        derivations in :mod:`repro.network.params`)."""
        return getattr(self.machine.net, "occupancy_factor", 1.0)

    # ------------------------------------------------------------------
    # Transport services (abstract)
    # ------------------------------------------------------------------

    def charm_transport(
        self, src: int, dst: int, payload_bytes: int, start: float, cb: Callable[[], None]
    ) -> float:
        """Default Charm++ message path (adds the envelope header)."""
        raise NotImplementedError

    def direct_put(
        self, src: int, dst: int, nbytes: int, start: float, cb: Callable[[], None]
    ) -> float:
        """CkDirect data path: memory-to-memory, no envelope."""
        raise NotImplementedError

    def recv_handler_cost(self, total_bytes: int) -> float:
        """Receive-side low-level handler cost for the two-sided path.

        Zero on Infiniband (the RTS hands the received buffer straight
        to the scheduler); the DCMF receipt-handler cost on BG/P.
        """
        return 0.0

    @staticmethod
    def packets(nbytes: int, packet_size: int) -> int:
        """Number of wire packets for a transfer (at least one)."""
        return max(1, math.ceil(nbytes / packet_size))
