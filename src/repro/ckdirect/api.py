"""The CkDirect interface (paper §2, Figure 1).

Function-per-function mirror of the paper's API:

=====================  =============================================
Paper name             Here
=====================  =============================================
CkDirect_createHandle  :func:`create_handle`
CkDirect_assocLocal    :func:`assoc_local`
CkDirect_put           :func:`put`
CkDirect_ready         :func:`ready`
CkDirect_readyMark     :func:`ready_mark`
CkDirect_readyPollQ    :func:`ready_poll_q`
=====================  =============================================

CamelCase aliases with the original names are exported too.

Platform dispatch follows the paper:

* **Infiniband** — ``create_handle`` stamps the out-of-band value into
  the buffer's trailing double word, registers the memory, and inserts
  the handle into the receiving PE's *polling queue*; ``put`` issues a
  bare RDMA write; the scheduler's poll sweep detects completion by
  the sentinel changing and runs the callback inline.  ``ready`` splits
  into ``ready_mark`` (re-stamp sentinel) + ``ready_poll_q`` (resume
  polling), letting applications confine polling overhead to the phase
  that needs it (§2.1 — crucial for OpenAtom, §5.2).
* **Blue Gene/P** — ``put`` is a DCMF two-sided send whose Info header
  carries the whole receive context (two quad words); the receive-side
  completion callback invokes the user callback directly, so there is
  no polling and the ``ready`` calls have no effect (§2.2).
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import TYPE_CHECKING, Any

from ..charm.errors import PutMismatchError
from ..charm.scheduler import DirectItem
from ..projections.events import CAT_CKDIRECT, CAT_FAULT
from ..util.buffers import Buffer
from .handle import (
    ChannelState,
    ChannelStateError,
    CkDirectError,
    CkDirectHandle,
    UserCallback,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..charm.chare import Chare
    from ..charm.runtime import Runtime


def _charge_if_ctx(rt: "Runtime", seconds: float) -> None:
    """Charge the current PE when called from an entry method; setup
    performed at bootstrap (host) time is off the clock, matching the
    paper's exclusion of one-time channel setup from steady state."""
    stack = rt._pe_stack
    if stack and seconds:
        stack[-1]._cursor += seconds  # a PE in context is executing


# ---------------------------------------------------------------------------
# Channel setup
# ---------------------------------------------------------------------------


def register_handle(chare: "Chare", handle: CkDirectHandle) -> CkDirectHandle:
    """Shared registration steps for a freshly built handle (also used
    by the extension channel types in :mod:`repro.ckdirect.ext`)."""
    rt = chare.rt
    handle.stamp_sentinel()
    _charge_if_ctx(rt, rt.machine.ckdirect.handle_setup)
    if not rt.is_bgp:
        # Registers the receive memory and starts polling immediately.
        chare._pe.poll_register(handle)
    # Receiver-side registry: cross-shard puts resolve the real handle
    # by hid on the shard that created it (repro.sim.parallel).
    rt._handles[handle.hid] = handle
    rt.trace.count("ckdirect.handles_created")
    return handle


def create_handle(
    chare: "Chare",
    buffer: Buffer,
    oob: Any,
    callback: UserCallback,
    cbdata: Any = None,
    name: str = "",
) -> CkDirectHandle:
    """Receiver side: create the handle for one channel.

    Mirrors ``CkDirect_createHandle(addr, size, oob, cb, cbdata)``.
    ``buffer`` is typically a :meth:`Buffer.view` of exactly the
    location where the data is needed (a matrix row, a halo face) —
    the zero-copy property.  ``oob`` must be a value that will never
    appear as the final element of received data.
    """
    rt = chare.rt
    handle = CkDirectHandle(rt, chare._pe, buffer, oob, callback, cbdata, name)
    return register_handle(chare, handle)


def assoc_local(chare: "Chare", handle: CkDirectHandle, src_buffer: Buffer) -> None:
    """Sender side: associate a local source buffer with the handle.

    Mirrors ``CkDirect_assocLocal``.  The same local buffer may be
    associated with *different* handles (one per receiver) without
    copying — the paper's multi-destination pattern.
    """
    rt = chare.rt
    recv = handle.recv_buffer
    if src_buffer.nbytes != recv.nbytes:
        raise PutMismatchError(
            f"{handle.name}: source is {src_buffer.nbytes}B but the "
            f"registered receive buffer is {recv.nbytes}B"
        )
    if not src_buffer.is_virtual and not recv.is_virtual:
        # Validate the element-level contract here, at the earliest
        # point both endpoints are known, so a bad pairing fails as a
        # typed error instead of a numpy copy failure at delivery time.
        if src_buffer.array.dtype != recv.array.dtype:
            raise PutMismatchError(
                f"{handle.name}: source dtype {src_buffer.array.dtype} does "
                f"not match the receive buffer dtype {recv.array.dtype}"
            )
        if src_buffer.array.size != recv.array.size:
            raise PutMismatchError(
                f"{handle.name}: source has {src_buffer.array.size} elements "
                f"but the receive buffer has {recv.array.size}"
            )
    if handle.src_pe is not None:
        raise ChannelStateError(f"{handle.name}: assoc_local called twice")
    handle.src_pe = chare._pe
    handle.src_buffer = src_buffer
    _charge_if_ctx(rt, rt.machine.ckdirect.assoc_overhead)
    rt.trace.count("ckdirect.assocs")


# ---------------------------------------------------------------------------
# Data movement
# ---------------------------------------------------------------------------

_PUTTABLE_IB = (ChannelState.ARMED, ChannelState.MARKED)
_PUTTABLE_BGP = (ChannelState.ARMED, ChannelState.MARKED, ChannelState.CONSUMED)


def put(handle: CkDirectHandle) -> None:
    """Send the associated buffer's contents down the channel.

    Mirrors ``CkDirect_put``.  Must be called in the sending chare's
    context.  Strict-mode checks enforce the paper's contract: at most
    one message in flight, and the receiver must have released the
    buffer (via its iteration-level synchronization) before the next
    put lands.
    """
    rt = handle.rt
    stack = rt._pe_stack
    pe = stack[-1] if stack else None
    if handle.src_pe is None or handle.src_buffer is None:
        raise CkDirectError(f"{handle.name}: put before assoc_local")
    if pe is None:
        raise CkDirectError(f"{handle.name}: put outside a chare context")
    if pe is not handle.src_pe:
        raise CkDirectError(
            f"{handle.name}: put from PE {pe.rank}, but the channel was "
            f"associated on PE {handle.src_pe.rank}"
        )
    if handle.remote:
        # Sender-side proxy of a channel owned by another shard: the
        # receiver's re-arms are invisible here, so skip the local state
        # machine (the real handle's landing-side checks still apply)
        # and ship a snapshot of the source buffer with the put.
        done = partial(_complete, handle, handle.src_buffer.snapshot())
    else:
        legal = _PUTTABLE_BGP if rt.is_bgp else _PUTTABLE_IB
        if handle.state not in legal:
            raise ChannelStateError(
                f"{handle.name}: put while channel is {handle.state.value} — "
                "the application-level synchronization the paper relies on "
                "has been violated (receiver has not re-armed the channel)"
            )
        if handle.state is ChannelState.CONSUMED:  # BG/P implicit re-arm
            handle.stamp_sentinel()
        handle.state = ChannelState.IN_FLIGHT
        done = partial(_complete, handle)
    nbytes = handle.recv_buffer.nbytes
    pe._cursor += rt.machine.ckdirect.put_issue  # pe is executing
    start = pe._cursor
    tr = rt.tracer
    if tr is not None:
        # An instant, not a span: the issue cost is part of the
        # surrounding entry-method span, which keeps every PE track a
        # flat sequence of non-overlapping spans.
        handle.trace_put_eid = tr.instant(
            rt._trace_run, pe.rank, CAT_CKDIRECT, f"put:{handle.name}",
            start, cause=tr.current,
            args={"bytes": nbytes, "dst_pe": handle.recv_pe.rank},
        )
    counters = rt.trace.counters
    counters["ckdirect.puts"] += 1
    counters["ckdirect.put_bytes"] += nbytes
    src_rank, dst_rank = pe.rank, handle.recv_pe.rank
    if src_rank == dst_rank:
        # Same-PE channel: a local memcpy at shared-memory speed.
        delay = rt.machine.net.shm_alpha + nbytes * rt.machine.net.shm_beta
        rt.sim.at(start + delay, done)
    elif rt.reliability is not None:
        _reliable_put(handle, start)
    else:
        # The callback is the arrival's only description: the sharded
        # engine ships a proxy's put (handle id + snapshot) to the
        # owning shard and refuses a real handle's put that would cross.
        rt.fabric.direct_put(src_rank, dst_rank, nbytes, start, done)


def _complete(handle: CkDirectHandle, snap=None) -> None:
    """Fabric delivery callback: land data + notify the receiver.

    ``snap`` is the source-buffer copy a proxy's put took at issue; a
    proxy (``handle.remote``) lands through its shard's real handle.
    """
    rt = handle.rt
    if handle.remote:
        handle = rt._handles[handle.hid]
    if snap is not None:
        handle.src_buffer = Buffer(array=snap)
    handle.deliver()
    tr = rt.tracer
    if tr is not None:
        handle.trace_eid = tr.instant(
            rt._trace_run, handle.recv_pe.rank, CAT_CKDIRECT,
            f"put_complete:{handle.name}", rt.sim.now,
            cause=handle.trace_put_eid,
            args={"bytes": handle.recv_buffer.nbytes},
        )
    _notify_arrival(handle)


# ---------------------------------------------------------------------------
# Reliability layer (active when the runtime carries ReliabilityParams)
# ---------------------------------------------------------------------------
#
# The paper's put is fire-and-forget: no ack, no timer, no retry —
# "unsynchronized" is the whole contribution.  When the runtime is
# built with a fault plan, puts instead run this sliding-window-of-one
# protocol, entirely as simulated-time events:
#
#   sender                               receiver
#   ------                               --------
#   put seq=n  ── direct_put ──────────► dedup (seq <= last? discard)
#   arm RTO(attempt)                     deliver / deliver_torn
#     │ timeout                          ack(n) ◄── small charm msg ──
#     ├─ attempt < max: retransmit n
#     └─ attempt = max: degrade handle, send n via charm_transport
#   ack(n): put resolved
#
# Timers are never withdrawn.  Each one carries the (seq, attempt) it
# was armed for and acts only while that is still the handle's current
# put and attempt, the put is unacknowledged and the handle is not
# degraded; a timer superseded by an ack, a retransmit or a newer put
# fires as a no-op.
#
# A PollWatchdog (charm/scheduler.py) periodically scans unresolved
# puts: torn landings are repaired locally, lost deliveries have their
# sender timeout pulled forward, and lost *acks* for already-delivered
# puts are re-sent.  None of this code runs — and none of these handle
# fields are touched — when ``rt.reliability`` is None, so the
# disabled-faults put path is unchanged.


def _reliable_put(handle: CkDirectHandle, start: float) -> None:
    """Issue one put under the reliability protocol."""
    rt = handle.rt
    handle.put_seq += 1
    handle.attempt = 0
    handle.put_issue_time = start
    rt._note_inflight(handle)
    if handle.degraded:
        _fallback_send(handle, handle.put_seq, start)
    else:
        _send_attempt(handle, handle.put_seq, start)


def _send_attempt(handle: CkDirectHandle, seq: int, start: float) -> None:
    """One RDMA attempt for put ``seq``; arms the retransmit timeout."""
    rt = handle.rt
    rel = rt.reliability
    handle.attempt += 1
    nbytes = handle.recv_buffer.nbytes
    inj = rt.fault_injector
    # The torn-sentinel fault is CkDirect-specific (the fabric does not
    # know the trailing word is special), so it is drawn here and the
    # delivery routed through the torn-landing path.  BG/P completion
    # is callback-based, not sentinel-inferred, so it cannot tear.
    torn = inj is not None and not rt.is_bgp and inj.draw_torn()
    if handle.attempt > 1:
        rt.trace.count("ckdirect.retransmits")
        tr = rt.tracer
        if tr is not None:
            tr.instant(
                rt._trace_run, handle.src_pe.rank, CAT_FAULT,
                f"retransmit:{handle.name}", start,
                args={"seq": seq, "attempt": handle.attempt},
            )
    rt.fabric.direct_put(
        handle.src_pe.rank, handle.recv_pe.rank, nbytes, start,
        lambda: _reliable_deliver(handle, seq, torn),
    )
    rt.sim.at(start + rel.rto(handle.attempt), _on_timeout,
              handle, seq, handle.attempt)


def _on_timeout(handle: CkDirectHandle, seq: int, attempt: int) -> None:
    """Retransmit timeout: try again, or give up and degrade."""
    if (seq != handle.put_seq or handle.acked_seq >= seq
            or handle.degraded or attempt != handle.attempt):
        return  # superseded: acked, retransmitted, degraded or a newer put
    rt = handle.rt
    now = rt.sim.now
    if handle.attempt >= rt.reliability.max_attempts:
        # Graceful degradation: this put — and every later one on this
        # handle — takes the two-copy Charm++ message path instead.
        handle.degraded = True
        rt.trace.count("ckdirect.degraded_handles")
        tr = rt.tracer
        if tr is not None:
            tr.instant(
                rt._trace_run, handle.src_pe.rank, CAT_FAULT,
                f"degrade:{handle.name}", now,
                args={"seq": seq, "attempts": handle.attempt},
            )
        _fallback_send(handle, seq, now)
    else:
        _send_attempt(handle, seq, now)


def _fallback_send(handle: CkDirectHandle, seq: int, start: float) -> None:
    """Ship put ``seq`` down the two-copy ``charm_transport`` path.

    The built-in fault profiles leave the ``charm`` scope fault-free
    (there is no retransmission below this layer), so a fallback put
    always delivers; a custom plan that faults ``charm`` deliberately
    gives up that guarantee.
    """
    rt = handle.rt
    rt.trace.count("ckdirect.fallback_puts")
    rt.fabric.charm_transport(
        handle.src_pe.rank, handle.recv_pe.rank, handle.recv_buffer.nbytes,
        start, lambda: _reliable_deliver(handle, seq, False),
    )


def _reliable_deliver(handle: CkDirectHandle, seq: int, torn: bool) -> None:
    """Fabric delivery callback on the reliable path."""
    rt = handle.rt
    if seq <= handle.last_delivered_seq:
        # A duplicate, or a delayed original overtaken by its own
        # retransmit: the payload must NOT land (the buffer may already
        # belong to a later phase), but the sender still needs the ack.
        rt.trace.count("ckdirect.dup_discards")
        _send_ack(handle, seq)
        return
    if torn:
        handle.deliver_torn()
        # No ack, no notify: to both endpoints the put looks lost until
        # a retransmit or the watchdog recovers it.
        return
    handle.deliver()
    handle.last_delivered_seq = seq
    tr = rt.tracer
    if tr is not None:
        handle.trace_eid = tr.instant(
            rt._trace_run, handle.recv_pe.rank, CAT_CKDIRECT,
            f"put_complete:{handle.name}", rt.sim.now,
            cause=handle.trace_put_eid,
            args={"bytes": handle.recv_buffer.nbytes, "seq": seq},
        )
    _send_ack(handle, seq)
    _notify_arrival(handle)


def _notify_arrival(handle: CkDirectHandle) -> None:
    """Wake the receiver after a put landed."""
    rt = handle.rt
    if rt.is_bgp:
        # DCMF receive-completion callback: handler + user callback run
        # directly, around the scheduler queue.
        cost = rt.fabric.recv_handler_cost(
            handle.recv_buffer.nbytes
        ) + rt.machine.ckdirect.callback_overhead
        item = DirectItem(cost, handle.fire)
        item.trace_eid = handle.trace_eid
        handle.recv_pe.push_direct(item)
    else:
        # Infiniband: wake the receiver; its poll sweep will detect the
        # sentinel change (if the handle is in the polling queue).
        handle.recv_pe.notify_arrival()


def _send_ack(handle: CkDirectHandle, seq: int) -> None:
    """Receiver -> sender completion ack (a small control message)."""
    rt = handle.rt
    rt.trace.count("ckdirect.acks_sent")
    inj = rt.fault_injector
    with inj.scoped("ack") if inj is not None else nullcontext():
        rt.fabric.charm_transport(
            handle.recv_pe.rank, handle.src_pe.rank, rt.reliability.ack_bytes,
            rt.sim.now, lambda: _on_ack(handle, seq),
        )


def _on_ack(handle: CkDirectHandle, seq: int) -> None:
    """Sender side: put ``seq`` is acknowledged."""
    rt = handle.rt
    if seq <= handle.acked_seq:
        return  # duplicate ack (receiver re-acks every duplicate)
    handle.acked_seq = seq
    rt.trace.count("ckdirect.acks_received")
    if seq >= handle.put_seq:
        # The newest put resolved; its timer now fires as a no-op.
        rt._note_acked(handle)


def _watchdog_recover(handle: CkDirectHandle, seq: int) -> None:
    """Escalate one stalled put (called by the PollWatchdog).

    Torn landings are repaired locally — the retransmit protocol's
    control header carries the payload's true trailing word, so the
    watchdog can finish the delivery without moving data.  A put with
    no landing at all has its sender's pending timeout pulled forward,
    so recovery does not wait out a long backoff.
    """
    rt = handle.rt
    rt.trace.count("ckdirect.watchdog_fires")
    tr = rt.tracer
    if tr is not None:
        tr.instant(
            rt._trace_run, handle.recv_pe.rank, CAT_FAULT,
            f"watchdog:{handle.name}", rt.sim.now,
            args={"seq": seq, "torn": handle.torn_landed},
        )
    if handle.torn_landed:
        handle.recover_torn()
        handle.last_delivered_seq = seq
        rt.trace.count("ckdirect.torn_recoveries")
        _send_ack(handle, seq)
        _notify_arrival(handle)
        return
    _on_timeout(handle, seq, handle.attempt)


# ---------------------------------------------------------------------------
# Re-arming
# ---------------------------------------------------------------------------


def ready_mark(handle: CkDirectHandle) -> None:
    """Re-stamp the out-of-band pattern: the receiver is done with the
    buffer.  Mirrors ``CkDirect_readyMark`` (no effect on BG/P)."""
    rt = handle.rt
    if rt.is_bgp:
        if handle.state is ChannelState.CONSUMED:
            handle.stamp_sentinel()
            handle.state = ChannelState.ARMED
        return
    if handle.state is not ChannelState.CONSUMED:
        raise ChannelStateError(
            f"{handle.name}: ready_mark while {handle.state.value} — the "
            "buffer has not been consumed (or was already re-armed)"
        )
    handle.stamp_sentinel()
    handle.state = ChannelState.MARKED
    rt.trace.count("ckdirect.ready_marks")


def ready_poll_q(handle: CkDirectHandle) -> None:
    """Resume polling this handle.  Mirrors ``CkDirect_readyPollQ``.

    Idempotent; if data already arrived while the handle was merely
    MARKED, the next sweep detects it immediately (no message is lost
    by deferring this call — §2.1).
    """
    rt = handle.rt
    if rt.is_bgp:
        return
    if handle.state is ChannelState.CONSUMED:
        raise ChannelStateError(
            f"{handle.name}: ready_poll_q before ready_mark — the sentinel "
            "is still clear, so arrival could never be detected"
        )
    handle.recv_pe.poll_register(handle)
    rt.trace.count("ckdirect.ready_polls")


def ready(handle: CkDirectHandle) -> None:
    """``ready_mark`` + ``ready_poll_q`` in one call (``CkDirect_ready``).

    Note this performs **no synchronization** with the sender — it only
    tells the local RTS to expect new data (paper §2)."""
    ready_mark(handle)
    ready_poll_q(handle)


# ---------------------------------------------------------------------------
# Paper-style aliases
# ---------------------------------------------------------------------------

CkDirect_createHandle = create_handle
CkDirect_assocLocal = assoc_local
CkDirect_put = put
CkDirect_ready = ready
CkDirect_readyMark = ready_mark
CkDirect_readyPollQ = ready_poll_q
