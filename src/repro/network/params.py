"""Calibrated machine parameter sets.

Every timing constant in the simulation lives here.  The values are
**calibrated against the paper's own microbenchmark tables** (Table 1
for Infiniband/Abe, Table 2 for Blue Gene/P/Surveyor): we decomposed
each reported round-trip time into the protocol components the paper
itself describes (software send overhead, wire latency, per-byte cost,
packetization, rendezvous, memory registration, scheduling, polling)
and solved for the constants.  The derivations are recorded inline so
the calibration is auditable; ``tests/bench/test_calibration.py``
asserts the resulting model stays within tolerance of the paper's
numbers and — more importantly — preserves every *shape* property the
paper argues from (orderings, crossovers, growth rates).

All times are in **seconds** (built with :func:`repro.util.units.us`)
and all sizes in bytes.

Calibration sketch (one-way latencies, microseconds)
----------------------------------------------------
Infiniband (NCSA Abe, Table 1; one-way = RTT/2):

* CkDirect = ``put_issue + alpha + B*beta + poll detection``:
  100 B → 6.19 µs, 500 KB → 647.2 µs gives ``beta ≈ 1.27e-3 µs/B``
  (~790 MB/s payload rate) and a fixed cost near 6.0 µs, split as
  put_issue 1.0 + alpha 4.0 + sweep 0.27 + detect 0.55 + callback 0.25.
* Default Charm++ eager (≤ ~2 KB incl. 80 B header):
  ``send sw 0.9 + proto 2.7 + alpha 4.0 + B_tot*beta + sched 2.8 +
  handler 0.7`` → 11.3 µs at 100 B (paper: 11.46).
* Packetized two-sided (2 KB – 20 KB): adds ``ceil(B/4096) * 3.0`` µs
  per-packet overhead → 23.6/33.1/52 µs at 5/10/20 KB (paper:
  23.7/33.1/48.1).
* Rendezvous RDMA (> 20 KB): adds ``rtt 5.5 + reg 22 + B*4e-5``
  instead of packetization → 78/91/170/694 µs at 30 K/40 K/100 K/500 K
  (paper: 80/96/177/700).
* MVAPICH two-sided: fixed ``sw 0.75 + recv 0.8 + tag 0.35 + alpha``,
  eager ≤ 8 KB at 2.5e-3 µs/B, rendezvous above at 1.35e-3 µs/B plus
  ``8.0 + (3.0 + 2e-5*B)``.  MVAPICH ``MPI_Put``: same transport minus
  tag matching plus post-start-complete-wait sync (2.6 µs eager /
  12.9 µs rendezvous) — reproducing the paper's observation that
  MPI_Put only overtakes two-sided above ~70 KB.
* MPICH-VMI: three-regime piecewise fit (the paper's own 70 KB vs
  100 KB numbers are only explicable by a protocol switch near 80 KB).

Blue Gene/P (ANL Surveyor, Table 2):

* CkDirect normal-path fixed cost 3.0 µs ≈ issue 0.4 + DCMF alpha 1.7
  + 1 hop × 0.1 + handler 0.5 + callback 0.3, with
  ``beta ≈ 2.671e-3 µs/B`` (~374 MB/s, consistent with one BG/P torus
  link); short path (< 224 B) fixed ≈ 2.35 µs.  DCMF's published
  one-way latency is 1.9 µs [Kumar et al. 2008], which our 100 B
  number (2.57 µs) sits just above, as the paper notes.
* Default Charm++ adds the 80 B header on the wire + alloc 0.8 +
  enqueue 0.55 + sched 2.0 + handler extra 0.9 + an RTS receive copy
  whose *exposed* cost saturates around 30 KB (beyond that the copy
  pipelines with packet arrival, since memcpy bandwidth far exceeds
  the 374 MB/s link) — matching the paper's observation that the gap
  starts ≈ 4.5 µs one-way and grows to ≈ 8.3 µs.
* IBM MPI: +1.25 µs software/tag-matching over the raw DCMF path plus
  an empirical mid-size buffering correction (the paper itself only
  "surmises some kind of buffering threshold" for this bump).
  MPI_Put adds ≈ 2.9 µs of post-start-complete-wait synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..util.units import us
from .topology import FatTree, Topology, Torus3D

# ---------------------------------------------------------------------------
# Component parameter groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharmParams:
    """Software costs of the (default) Charm++ message path."""

    header_bytes: int = 80  # the paper: "≈ 80 bytes long"
    send_overhead: float = us(0.9)  # allocate envelope + issue send
    recv_overhead: float = us(0.0)  # RTS receive-side bookkeeping
    sched_overhead: float = us(2.8)  # dequeue + scheduler dispatch
    #: extra dispatch cost per message still waiting in the queue — the
    #: paper's "greater scheduling overheads because of increased queue
    #: occupancy" (§4.1).  Zero-occupancy dequeues (pingpong) pay none,
    #: so the Table 1/2 calibration is unaffected.
    sched_per_queued: float = us(0.1)
    handler_overhead: float = us(0.7)  # entry-method invocation
    # Application-level memcpy model (used when app code packs/unpacks):
    copy_base: float = us(0.1)
    copy_per_byte: float = us(2.0e-4)  # ~5 GB/s
    # RTS-internal receive copy (BG/P two-sided DCMF path only).  The
    # exposed cost saturates: beyond `rts_copy_cap` bytes the copy
    # pipelines with packet arrival (memcpy bw >> link bw).
    rts_copy_per_byte: float = 0.0
    rts_copy_cap: int = 0


@dataclass(frozen=True)
class CkDirectParams:
    """Software costs of the CkDirect path."""

    put_issue: float = us(1.0)  # CkDirect_put -> RDMA descriptor post
    poll_base: float = us(0.1)  # fixed cost of one poll-queue sweep
    #: per handle scanned in a sweep: an 8-byte read of memory the NIC
    #: just DMA'd (or that has gone cold since the last sweep) — a
    #: cache miss more often than not, hence ~50 ns.  This is the §5.2
    #: pathology's unit cost.
    poll_per_handle: float = us(0.05)
    detect_overhead: float = us(0.7)  # dequeue-from-pollq on detection
    callback_overhead: float = us(0.25)  # the plain-function callback
    handle_setup: float = us(25.0)  # one-time: create/register buffer
    assoc_overhead: float = us(12.0)  # one-time: assocLocal + register


@dataclass(frozen=True)
class IBParams:
    """Infiniband Reliable Connection transport model."""

    alpha: float = us(4.0)  # base wire+switch latency
    beta: float = us(1.27e-3)  # per-byte wire cost (~790 MB/s)
    proto_overhead: float = us(2.7)  # two-sided protocol processing
    eager_max: int = 2048  # total bytes (payload+header) sent eagerly
    packet_size: int = 4096
    packet_overhead: float = us(3.0)  # per-packet sw/NIC cost
    rdma_threshold: int = 20_480  # above: rendezvous RDMA
    rendezvous_rtt: float = us(5.5)  # control-message exchange
    reg_base: float = us(22.0)  # pin/register destination memory
    reg_per_byte: float = us(4.0e-5)
    #: Small RDMA writes move below the streaming rate while the DMA
    #: engine ramps (doorbell + PCIe round trips dominate): an extra
    #: per-byte cost on the first `rdma_ramp_cap` bytes of a put.
    #: Fit to Table 1's CkDirect row, whose 1-10 KB points sit above
    #: the large-message slope.
    rdma_ramp_per_byte: float = us(0.55e-3)
    rdma_ramp_cap: int = 4_000
    #: NIC occupancy per transferred byte as a fraction of `beta`.
    #: `beta` (calibrated from the pingpong slope) lumps wire time with
    #: per-byte software cost; only the wire share occupies the node's
    #: single DDR-IB HCA: ~787 MB/s effective / ~1.94 GB/s link = 0.41.
    occupancy_factor: float = 0.41
    # intra-node (shared memory) path
    shm_alpha: float = us(0.5)
    shm_beta: float = us(2.0e-4)  # ~5 GB/s


@dataclass(frozen=True)
class BGPParams:
    """Blue Gene/P DCMF transport model."""

    alpha: float = us(1.7)  # DCMF normal-message latency component
    alpha_short: float = us(1.3)  # short (< 224 B) fast path
    beta: float = us(2.671e-3)  # per-byte torus link cost (~374 MB/s)
    hop_latency: float = us(0.1)
    short_max: int = 224  # paper: short vs normal handler threshold
    issue_overhead: float = us(0.4)  # DCMF_Send software issue
    handler_normal: float = us(0.5)  # normal receipt handler
    handler_short: float = us(0.25)  # short receipt handler (incl copy)
    quad_word: int = 16  # Info header granularity
    info_qwords_ckdirect: int = 2  # paper: CkDirect Info = 2 quad words
    #: A BG/P node drives six torus links of ~425 MB/s; one transfer's
    #: occupancy of the node's aggregate injection capacity is
    #: (374 effective / 425 link) / 6 links ≈ 0.147 of its streaming time.
    occupancy_factor: float = 0.147
    # intra-node (shared memory) path
    shm_alpha: float = us(0.3)
    shm_beta: float = us(3.3e-4)  # ~3 GB/s


@dataclass(frozen=True)
class MPIFlavorParams:
    """One MPI implementation's software + transport constants.

    ``regimes`` is a sorted tuple of ``(max_total_bytes, fixed_extra,
    beta)`` rows: the transport picks the first row whose bound covers
    the message.  This expresses eager/mid/rendezvous protocol bands
    uniformly across flavors (MPICH-VMI needs three bands to explain
    the paper's own numbers).
    """

    name: str = "mpi"
    sw_send: float = us(0.75)
    sw_recv: float = us(0.8)
    tag_match: float = us(0.35)
    regimes: Tuple[Tuple[int, float, float], ...] = ()
    # rendezvous bookkeeping applied in the *last* regime only:
    rndv_fixed: float = 0.0
    reg_base: float = 0.0
    reg_per_byte: float = 0.0
    # one-sided (MPI_Put) model; ``put_sync_*`` is the
    # post-start-complete-wait epoch cost amortized per put.
    has_put: bool = False
    put_eager_max: int = 0
    put_sync_small: float = 0.0
    put_sync_large: float = 0.0
    unexpected_copy_per_byte: float = us(2.0e-4)  # late-recv bounce copy


@dataclass(frozen=True)
class ComputeParams:
    """Per-machine computation cost model (performance-mode charging)."""

    stencil_update: float = us(4.0e-3)  # 7-pt Jacobi update, per element
    dgemm_flops_per_sec: float = 7.5e9  # sustained, per core
    pack_per_byte: float = us(2.0e-4)  # application memcpy (~5 GB/s)
    pack_base: float = us(0.1)
    fft_per_point: float = us(2.0e-3)  # OpenAtom GSpace transform work


@dataclass(frozen=True)
class MachineParams:
    """Everything needed to instantiate a simulated machine."""

    name: str
    kind: str  # "ib" | "bgp"
    cores_per_node: int
    charm: CharmParams
    ckdirect: CkDirectParams
    net: object  # IBParams | BGPParams
    mpi_flavors: Dict[str, MPIFlavorParams]
    compute: ComputeParams
    default_mpi: str = ""

    def make_topology(self, n_pes: int) -> Topology:
        """Build this machine's topology for a PE count."""
        n_nodes = -(-n_pes // self.cores_per_node)
        if self.kind == "ib":
            return FatTree(n_nodes, self.cores_per_node)
        return Torus3D.for_pes(n_pes, self.cores_per_node)


# ---------------------------------------------------------------------------
# Infiniband machines
# ---------------------------------------------------------------------------

_MVAPICH = MPIFlavorParams(
    name="MVAPICH",
    sw_send=us(0.75),
    sw_recv=us(0.8),
    tag_match=us(0.35),
    regimes=(
        (8_000, 0.0, us(2.5e-3)),  # eager, bounce-buffered
        (10**12, 0.0, us(1.35e-3)),  # rendezvous, zero-copy
    ),
    rndv_fixed=us(8.0),
    reg_base=us(3.0),
    reg_per_byte=us(2.0e-5),
    has_put=True,
    put_eager_max=8_000,
    put_sync_small=us(2.6),
    put_sync_large=us(13.2),
)

_MPICH_VMI = MPIFlavorParams(
    name="MPICH-VMI",
    sw_send=us(0.8),
    sw_recv=us(0.9),
    tag_match=us(0.4),
    regimes=(
        (16_000, 0.0, us(2.5e-3)),
        (80_000, us(1.9), us(2.2e-3)),
        (10**12, us(26.0), us(1.35e-3)),
    ),
    rndv_fixed=0.0,
    has_put=False,
)

ABE = MachineParams(
    name="Abe",
    kind="ib",
    cores_per_node=8,  # dual-socket quad-core Clovertown
    charm=CharmParams(),
    ckdirect=CkDirectParams(),
    net=IBParams(),
    mpi_flavors={"MVAPICH": _MVAPICH, "MPICH-VMI": _MPICH_VMI},
    default_mpi="MVAPICH",
    compute=ComputeParams(
        stencil_update=us(2.5e-3),
        dgemm_flops_per_sec=7.5e9,
        pack_per_byte=us(2.0e-4),
        fft_per_point=us(1.8e-3),
    ),
)

#: NCSA T3: dual-socket dual-core Woodcrest + Infiniband.  Same fabric
#: constants as Abe (both NCSA IB clusters of that era); fewer, slightly
#: faster cores with more bus bandwidth per core.
T3 = MachineParams(
    name="T3",
    kind="ib",
    cores_per_node=4,
    charm=CharmParams(),
    ckdirect=CkDirectParams(),
    net=IBParams(),
    mpi_flavors={"MVAPICH": _MVAPICH, "MPICH-VMI": _MPICH_VMI},
    default_mpi="MVAPICH",
    compute=ComputeParams(
        stencil_update=us(2.5e-3),
        dgemm_flops_per_sec=8.0e9,
        pack_per_byte=us(1.8e-4),
        fft_per_point=us(1.7e-3),
    ),
)

# ---------------------------------------------------------------------------
# Blue Gene/P
# ---------------------------------------------------------------------------

#: IBM MPI's mid-size "buffering threshold" correction, as a piecewise-
#: linear table over payload bytes.  Fit to Table 2; the paper itself
#: can only surmise the cause ("some kind of buffering threshold").
IBM_MPI_BUFFERING_TABLE: Tuple[Tuple[int, float], ...] = (
    (0, 0.0),
    (2_000, 0.0),
    (5_000, us(2.15)),
    (10_000, us(1.75)),
    (20_000, us(1.45)),
    (30_000, us(0.45)),
    (10**12, us(0.45)),
)

_IBM_MPI = MPIFlavorParams(
    name="IBM-MPI",
    sw_send=us(0.55),
    sw_recv=us(0.55),
    tag_match=us(0.45),
    regimes=((10**12, 0.0, 0.0),),  # transport cost comes from DCMF
    has_put=True,
    put_eager_max=0,
    put_sync_small=us(3.3),
    put_sync_large=us(3.3),
)

SURVEYOR = MachineParams(
    name="Surveyor",
    kind="bgp",
    cores_per_node=4,  # quad-core PPC450
    charm=CharmParams(
        send_overhead=us(0.55),
        recv_overhead=us(0.8),  # handler must provide a receive buffer
        sched_overhead=us(2.3),
        sched_per_queued=us(0.08),
        handler_overhead=us(0.9),
        copy_base=us(0.1),
        copy_per_byte=us(7.7e-4),  # ~1.3 GB/s PPC450 memcpy
        rts_copy_per_byte=us(1.3e-4),
        rts_copy_cap=30_000,
    ),
    ckdirect=CkDirectParams(
        put_issue=us(0.0),  # DCMF issue cost charged by the fabric
        poll_base=0.0,  # BG/P implementation does not poll
        poll_per_handle=0.0,
        detect_overhead=0.0,
        callback_overhead=us(0.3),
        handle_setup=us(8.0),
        assoc_overhead=us(4.0),
    ),
    net=BGPParams(),
    mpi_flavors={"IBM-MPI": _IBM_MPI},
    default_mpi="IBM-MPI",
    compute=ComputeParams(
        stencil_update=us(8.0e-3),
        dgemm_flops_per_sec=2.7e9,
        pack_per_byte=us(7.7e-4),
        fft_per_point=us(4.5e-3),
    ),
)

MACHINES: Dict[str, MachineParams] = {
    "Abe": ABE,
    "T3": T3,
    "Surveyor": SURVEYOR,
}


def interp_table(table: Sequence[Tuple[int, float]], x: float) -> float:
    """Piecewise-linear interpolation over a sorted (x, y) table."""
    lo_x, lo_y = table[0]
    if x <= lo_x:
        return lo_y
    for hi_x, hi_y in table[1:]:
        if x <= hi_x:
            frac = (x - lo_x) / (hi_x - lo_x)
            return lo_y + frac * (hi_y - lo_y)
        lo_x, lo_y = hi_x, hi_y
    return lo_y
