"""The pingpong microbenchmark (paper §3, Tables 1 and 2).

Round-trip time between two endpoints on *different nodes*, averaged
over many iterations, for each communication stack the paper measures:

* ``charm_pingpong``    — default Charm++ messages (envelope + scheduler),
* ``ckdirect_pingpong`` — CkDirect puts (Figure 1 protocol, including
  the handle exchange during setup),
* ``mpi_pingpong``      — two-sided MPI for a given flavor,
* ``mpi_put_pingpong``  — one-sided ``MPI_Put`` (amortized PSCW).

Message size means *user data bytes*, exactly as the paper's tables
count it (the Charm++ header is extra, on the wire only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..charm import Chare, CkCallback, CustomMap, Payload, Runtime
from ..charm.runtime import collector_off
from ..mpi import MPIWorld, Win
from ..network.params import MachineParams
from ..util.buffers import Buffer
from .. import ckdirect as ckd

#: Map element 0 to the first PE of node 0 and element 1 to the first
#: PE of the last node — the cross-node placement the paper measures.
def _cross_node_map(idx, dims, n_pes):
    return 0 if idx[0] == 0 else n_pes - 1


CROSS_NODE = CustomMap(_cross_node_map)

#: Out-of-band value for real-buffer runs (buffers carry indices >= 0).
OOB = -1.0


@dataclass
class PingpongResult:
    """One pingpong measurement."""

    stack: str
    machine: str
    nbytes: int
    iterations: int
    rtt: float  # seconds, averaged per iteration
    events: int = 0  # simulator events fired by the run

    @property
    def rtt_us(self) -> float:
        """Round-trip time in microseconds."""
        return self.rtt * 1e6


# ---------------------------------------------------------------------------
# Charm++ messages
# ---------------------------------------------------------------------------


class _MsgPinger(Chare):
    """Two-element chare array bouncing one pre-built message."""

    def __init__(self, iterations: int, nbytes: int) -> None:
        self.iterations = iterations
        self.nbytes = nbytes
        self.count = 0
        self.t0 = 0.0

    def start(self) -> None:
        """Entry method: begin the exchange."""
        self.t0 = self.now
        # pack=False: the paper's pingpong reuses one message buffer.
        self.proxy[1].ping(Payload.virtual(self.nbytes))

    def ping(self, payload: Payload) -> None:
        """Entry method: bounce the ball back."""
        self.proxy[0].pong(Payload.virtual(self.nbytes))

    def pong(self, payload: Payload) -> None:
        """Entry method: count a round trip, continue or finish."""
        self.count += 1
        if self.count < self.iterations:
            self.proxy[1].ping(Payload.virtual(self.nbytes))
        else:
            self.rt.result_time = (self.now - self.t0) / self.iterations


def charm_pingpong(
    machine: MachineParams, nbytes: int, iterations: int = 200
) -> PingpongResult:
    """Default Charm++ message pingpong across two nodes."""
    rt = Runtime(machine, n_pes=2 * machine.cores_per_node)
    arr = rt.create_array(
        _MsgPinger, dims=(2,), ctor_args=(iterations, nbytes), mapping=CROSS_NODE
    )
    arr.proxy[0].start()
    with collector_off():  # until close() has freed the run
        rt.run()
        rt.close()
    return PingpongResult("charm", machine.name, nbytes, iterations, rt.result_time,
                          events=rt.sim.events_processed)


# ---------------------------------------------------------------------------
# CkDirect
# ---------------------------------------------------------------------------


class _CkdPinger(Chare):
    """Figure 1 in miniature: the receiver creates the handle and sends
    it to the sender, which associates its local buffer; thereafter
    the endpoints bounce puts with no per-message synchronization."""

    def __init__(self, iterations: int, nbytes: int, real_buffers: bool) -> None:
        self.iterations = iterations
        self.nbytes = nbytes
        self.count = 0
        self.t0 = 0.0
        self.peer_handle: Optional[ckd.CkDirectHandle] = None
        if real_buffers:
            n = max(1, nbytes // 8)
            self.recv_buf = Buffer(array=np.zeros(n))
            self.send_buf = Buffer(array=np.arange(1, n + 1, dtype=float))
        else:
            self.recv_buf = Buffer(nbytes=nbytes)
            self.send_buf = Buffer(nbytes=nbytes)
        # Step 1 of Figure 1: receiver-side handle creation.
        self.handle = ckd.create_handle(
            self, self.recv_buf, OOB, self.on_data, name=f"pp{self.thisIndex[0]}"
        )

    def setup(self) -> None:
        # Step 2: ship the handle to the peer in a regular message.
        """Entry method: wire channels / join the setup barrier."""
        peer = 1 - self.thisIndex[0]
        self.proxy[peer].recv_handle(self.handle)

    def recv_handle(self, handle: ckd.CkDirectHandle) -> None:
        # Sender side: associate the local buffer with the channel.
        """Entry method: receive the peer's channel handle (Figure 1 step 2)."""
        ckd.assoc_local(self, handle, self.send_buf)
        self.peer_handle = handle
        self.contribute(callback=CkCallback.bcast(self.proxy.array, "go"))

    def go(self) -> None:
        """Entry method: start this endpoint's role."""
        if self.thisIndex[0] == 0:
            self.t0 = self.now
            ckd.put(self.peer_handle)

    def on_data(self, _cbdata) -> None:
        """CkDirect completion callback."""
        ckd.ready(self.handle)
        if self.thisIndex[0] == 1:
            ckd.put(self.peer_handle)
            return
        self.count += 1
        if self.count < self.iterations:
            ckd.put(self.peer_handle)
        else:
            self.rt.result_time = (self.now - self.t0) / self.iterations


def ckdirect_pingpong(
    machine: MachineParams,
    nbytes: int,
    iterations: int = 200,
    real_buffers: bool = False,
    faults: Optional[str] = None,
    fault_seed: int = 0x0FA11,
) -> PingpongResult:
    """CkDirect pingpong across two nodes.

    With ``real_buffers=True`` actual numpy data crosses the channels
    and the out-of-band sentinel mechanics run for real (used by the
    validation tests; timing is identical either way).  ``faults``
    names a built-in fault profile: puts then run over an imperfect
    fabric with the reliability layer armed.
    """
    from ..faults import FaultPlan

    plan = FaultPlan.named(faults, fault_seed) if faults is not None else None
    rt = Runtime(machine, n_pes=2 * machine.cores_per_node, fault_plan=plan)
    arr = rt.create_array(
        _CkdPinger,
        dims=(2,),
        ctor_args=(iterations, nbytes, real_buffers),
        mapping=CROSS_NODE,
    )
    arr.proxy.bcast("setup")
    with collector_off():  # until close() has freed the run
        rt.run()
        rt.close()
    return PingpongResult("ckdirect", machine.name, nbytes, iterations, rt.result_time,
                          events=rt.sim.events_processed)


# ---------------------------------------------------------------------------
# MPI
# ---------------------------------------------------------------------------


def mpi_pingpong(
    machine: MachineParams,
    nbytes: int,
    iterations: int = 200,
    flavor: Optional[str] = None,
) -> PingpongResult:
    """Two-sided MPI pingpong (receives pre-posted, the usual style)."""
    world = MPIWorld(machine, 2, flavor=flavor)
    r0, r1 = world.ranks
    state = {"count": 0, "rtt": 0.0}

    def r0_got_pong(_arr) -> None:
        state["count"] += 1
        if state["count"] < iterations:
            r0.irecv(r0_got_pong, src=1)
            r0.isend(1, nbytes)
        else:
            state["rtt"] = r0.cursor / iterations

    def r1_got_ping(_arr) -> None:
        r1.irecv(r1_got_ping, src=0)
        r1.isend(0, nbytes)

    r0.irecv(r0_got_pong, src=1)
    r1.irecv(r1_got_ping, src=0)
    r0.isend(1, nbytes)
    world.run()
    return PingpongResult(
        f"mpi:{world.params.name}", machine.name, nbytes, iterations, state["rtt"],
        events=world.sim.events_processed,
    )


def mpi_put_pingpong(
    machine: MachineParams,
    nbytes: int,
    iterations: int = 200,
    flavor: Optional[str] = None,
) -> PingpongResult:
    """One-sided ``MPI_Put`` pingpong (PSCW completion amortized, the
    way the paper's MVAPICH-Put / BG-P MPI-Put rows measured it)."""
    world = MPIWorld(machine, 2, flavor=flavor)
    win = Win(world)
    r0, r1 = world.ranks
    state = {"count": 0, "rtt": 0.0}

    def at_r1() -> None:
        win.put(r1, 0, nbytes, on_complete=at_r0)

    def at_r0() -> None:
        state["count"] += 1
        if state["count"] < iterations:
            win.put(r0, 1, nbytes, on_complete=at_r1)
        else:
            state["rtt"] = world.sim.now / iterations

    win.put(r0, 1, nbytes, on_complete=at_r1)
    world.run()
    return PingpongResult(
        f"mpi-put:{world.params.name}", machine.name, nbytes, iterations, state["rtt"],
        events=world.sim.events_processed,
    )


# ---------------------------------------------------------------------------
# Sweep-point adapter
# ---------------------------------------------------------------------------

STACKS = {
    "charm": charm_pingpong,
    "ckdirect": ckdirect_pingpong,
    "mpi": mpi_pingpong,
    "mpi-put": mpi_put_pingpong,
}


def pingpong_point(
    machine: MachineParams,
    stack: str,
    size: int,
    iterations: int = 200,
    flavor: Optional[str] = None,
) -> dict:
    """Picklable sweep-point adapter: one pingpong measurement.

    ``flavor`` only applies to the MPI stacks (it selects the
    simulated MPI implementation's parameter set).
    """
    if stack not in STACKS:
        raise ValueError(f"stack must be one of {sorted(STACKS)}, got {stack!r}")
    kwargs = {"flavor": flavor} if stack.startswith("mpi") and flavor else {}
    r = STACKS[stack](machine, size, iterations, **kwargs)
    return {"rtt_us": r.rtt_us, "events": r.events}
