"""Simulated MPI ranks on the calibrated fabrics.

This is the baseline layer the paper compares CkDirect against.  It is
an event-driven skeleton of an MPI implementation: SPMD codes are
written in continuation style (callbacks on receive completion), which
suffices for the paper's benchmarks and for the synchronization-scheme
ablations.

Cost structure per message (constants from the machine's
:class:`~repro.network.params.MPIFlavorParams`):

* sender software (``sw_send``), then the flavor's transport regime —
  eager (bounce-buffered, higher per-byte), possibly a mid regime
  (MPICH-VMI needs one), or rendezvous (handshake + registration +
  zero-copy wire rate);
* receiver software (``sw_recv``) + tag matching on delivery;
* messages that arrive before their receive is posted pay an
  additional unexpected-queue copy when the receive finally posts.

On Blue Gene/P the wire transport is the shared DCMF model (the same
one Charm++ and CkDirect ride), plus MPI software overheads and the
empirical mid-size buffering correction from
:data:`~repro.network.params.IBM_MPI_BUFFERING_TABLE`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..network import BGPFabric, MachineParams, make_fabric
from ..network.params import IBM_MPI_BUFFERING_TABLE, interp_table
from ..projections.events import CAT_MPI, CAT_MSG
from ..projections.eventlog import current_tracer
from ..sim import Entity, Trace, make_simulator
from .flavors import MPIError, regime_for, resolve_flavor, uses_rendezvous
from .p2p import ANY_SOURCE, ANY_TAG, Arrival, Matcher, RecvPost

#: Control-message wire size (RTS/CTS, epoch notifications).
CTRL_BYTES = 64


class Rank(Entity):
    """One MPI process bound to a PE."""

    def __init__(self, world: "MPIWorld", rank: int, pe: int) -> None:
        super().__init__(world.sim, name=f"rank{rank}")
        self.world = world
        self.rank = rank
        self.pe = pe
        self.matcher = Matcher()
        self.busy_until = 0.0
        self._cursor = 0.0
        self._executing = False

    # ------------------------------------------------------------------
    # Execution context
    # ------------------------------------------------------------------

    @property
    def cursor(self) -> float:
        """This rank's local clock (busy frontier while executing)."""
        return self._cursor if self._executing else max(self.now, self.busy_until)

    def charge(self, seconds: float) -> None:
        """Consume seconds of this rank's time (execution context only)."""
        if not self._executing:
            raise MPIError(f"{self.name}: charge() outside an execution context")
        self._cursor += seconds

    def exec_at(self, t: float, fn: Callable, *args) -> None:
        """Run ``fn`` in this rank's context, no earlier than ``t`` and
        never overlapping earlier work on this rank."""

        def _run() -> None:
            self._cursor = max(self.now, self.busy_until)
            self._executing = True
            try:
                fn(*args)
            finally:
                self._executing = False
                self.busy_until = self._cursor

        self.sim.at(max(t, self.sim.now), _run)

    # ------------------------------------------------------------------
    # Point-to-point API
    # ------------------------------------------------------------------

    def isend(self, dst: int, nbytes: int, tag: int = 0,
              on_complete: Optional[Callable[[], None]] = None) -> None:
        """Non-blocking send (buffered semantics: local completion is
        immediate after the software send overhead)."""
        self.world._send(self, dst, nbytes, tag)
        if on_complete is not None:
            on_complete()

    def irecv(self, cb: Callable[[Arrival], None], src: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> None:
        """Post a receive; ``cb(arrival)`` runs in this rank's context
        at completion."""
        self.world._post_recv(self, src, tag, cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rank {self.rank} on pe{self.pe}>"


class MPIWorld:
    """A set of MPI ranks over one simulated machine, one rank per
    node (the paper's pingpong configuration)."""

    def __init__(
        self,
        machine: MachineParams,
        n_ranks: int,
        flavor: Optional[str] = None,
    ) -> None:
        if n_ranks <= 0:
            raise MPIError(f"n_ranks must be positive, got {n_ranks}")
        self.machine = machine
        self.params = resolve_flavor(machine, flavor)
        self.sim = make_simulator()
        self.trace = Trace()
        #: timeline tracer (ambient pickup, as in the charm Runtime).
        self.tracer = current_tracer()
        self._trace_run = 0
        cpn = machine.cores_per_node
        n_pes = n_ranks * cpn
        self.fabric = make_fabric(self.sim, machine, n_pes, self.trace)
        if self.tracer is not None:
            self._trace_run = self.tracer.new_run(
                f"mpi:{self.params.name}@{machine.name}", owner=self, n_pes=n_pes
            )
            self.fabric.tracer = self.tracer
            self.fabric.trace_run = self._trace_run
        self.ranks: List[Rank] = [Rank(self, r, r * cpn) for r in range(n_ranks)]

    @property
    def n_ranks(self) -> int:
        """Number of MPI ranks in the world."""
        return len(self.ranks)

    def run(self) -> float:
        """Run the simulation until no event remains; returns the final
        simulated time."""
        self.sim.run()
        return self.sim.now

    # ------------------------------------------------------------------
    # Transport internals
    # ------------------------------------------------------------------

    def _is_bgp(self) -> bool:
        return isinstance(self.fabric, BGPFabric)

    def _transport(self, src: Rank, dst: Rank, nbytes: int, pre_extra: float,
                   cb: Callable[[], None], beta_override: Optional[float] = None,
                   start: Optional[float] = None) -> None:
        """One wire transfer under this flavor's constants."""
        t0 = start if start is not None else src.cursor
        if self._is_bgp():
            # BG/P: everyone rides DCMF; flavor adds software on top.
            self.fabric.dcmf_send(src.pe, dst.pe, nbytes, t0 + pre_extra, cb,
                                  info_qwords=2)
            return
        _, fixed, beta, _ = regime_for(self.params, nbytes)
        if beta_override is not None:
            beta = beta_override
        self.fabric.transfer(
            src.pe, dst.pe, nbytes, t0,
            pre=pre_extra + fixed, alpha=self.machine.net.alpha, beta=beta, cb=cb,
        )

    def _bgp_extra(self, nbytes: int) -> float:
        """IBM MPI's empirical mid-size buffering correction."""
        if not self._is_bgp():
            return 0.0
        return interp_table(IBM_MPI_BUFFERING_TABLE, nbytes)

    def _send(self, src: Rank, dst_rank: int, nbytes: int, tag: int) -> None:
        if not (0 <= dst_rank < self.n_ranks):
            raise MPIError(f"destination rank {dst_rank} out of range")
        if src._executing:
            src.charge(self.params.sw_send)
            t0 = src.cursor
        else:
            t0 = src.cursor + self.params.sw_send
        dst = self.ranks[dst_rank]
        self.trace.count("mpi.sends")
        self.trace.count("mpi.bytes", nbytes)
        tr = self.tracer
        send_eid = None
        if tr is not None:
            send_eid = tr.instant(
                self._trace_run, src.pe, CAT_MSG, "mpi_send", t0,
                cause=tr.current,
                args={"dst_rank": dst_rank, "bytes": nbytes, "tag": tag},
            )

        if not self._is_bgp() and uses_rendezvous(self.params, nbytes):
            self._send_rendezvous(src, dst, nbytes, tag, t0, send_eid)
        else:
            extra = self._bgp_extra(nbytes)
            self._transport(
                src, dst, nbytes, extra,
                lambda: self._data_arrived(dst, src.rank, tag, nbytes, send_eid),
                start=t0,
            )

    def _send_rendezvous(self, src: Rank, dst: Rank, nbytes: int, tag: int,
                         t0: float, send_eid: Optional[int] = None) -> None:
        """Rendezvous: announce via RTS; data moves once a receive is
        posted, paying handshake + registration, then the zero-copy
        wire rate.  The RTS/CTS latency is folded into ``rndv_fixed``
        (that is how the constants were calibrated)."""
        p = self.params

        def begin_data(recv: RecvPost) -> None:
            start = max(t0, recv.post_time)
            pre = p.rndv_fixed + p.reg_base + nbytes * p.reg_per_byte
            beta = p.regimes[-1][2]

            def data_done() -> None:
                done = Arrival(src.rank, tag, nbytes, self.sim.now,
                               trace_eid=send_eid)
                dst.exec_at(self.sim.now, self._finish_recv, dst, recv.cb, done, 0.0)

            self.fabric.transfer(
                src.pe, dst.pe, nbytes, start,
                pre=pre, alpha=self.machine.net.alpha, beta=beta, cb=data_done,
            )

        arrival = Arrival(src.rank, tag, nbytes, t0, begin_data=begin_data,
                          trace_eid=send_eid)
        recv = dst.matcher.arrive(arrival)
        self.trace.count("mpi.rendezvous")
        if recv is not None:
            begin_data(recv)
        # else: the matcher holds the RTS; _post_recv calls begin_data.

    def _data_arrived(self, dst: Rank, src_rank: int, tag: int, nbytes: int,
                      send_eid: Optional[int] = None) -> None:
        """Eager data landed at the receiver."""
        arrival = Arrival(src_rank, tag, nbytes, self.sim.now, trace_eid=send_eid)
        recv = dst.matcher.arrive(arrival)
        if recv is not None:
            dst.exec_at(self.sim.now, self._finish_recv, dst, recv.cb, arrival, 0.0)
        # else: waits in the unexpected queue; _post_recv completes it.

    def _post_recv(self, rank: Rank, src: int, tag: int,
                   cb: Callable[[Arrival], None]) -> None:
        recv = RecvPost(src, tag, cb, rank.cursor)
        arrival = rank.matcher.post(recv)
        if arrival is None:
            return
        if arrival.is_rendezvous:
            arrival.begin_data(recv)
        else:
            # Unexpected eager message: pay the bounce-buffer copy.
            copy = arrival.nbytes * self.params.unexpected_copy_per_byte
            self.trace.count("mpi.unexpected")
            rank.exec_at(max(rank.cursor, arrival.arrival_time),
                         self._finish_recv, rank, cb, arrival, copy)

    def _finish_recv(self, rank: Rank, cb: Callable[[Arrival], None],
                     arrival: Arrival, extra: float) -> None:
        t0 = rank._cursor
        rank.charge(self.params.tag_match + self.params.sw_recv + extra)
        self.trace.count("mpi.recvs")
        tr = self.tracer
        if tr is None:
            cb(arrival)
            return
        eid = tr.next_id()
        tr.push(eid)
        try:
            cb(arrival)
        finally:
            tr.pop()
            tr.span(self._trace_run, rank.pe, CAT_MPI, "mpi_recv",
                    t0, rank._cursor, eid=eid, cause=arrival.trace_eid,
                    args={"src_rank": arrival.src, "bytes": arrival.nbytes})
