"""One-sided shared-memory shard transport (``--transport shm``).

The sharded engine (:mod:`repro.sim.parallel`) exchanges one
message per shard per barrier: the worker's
``state`` (next event time + the epoch window's cross-shard records)
and the coordinator's ``window`` answer.  The reference transport
ships those over :class:`multiprocessing.connection.Connection` pipes
— a pickle, a copy into the kernel, a wakeup, and a copy back out per
message.  This module applies the paper's own mechanism to that IPC
path: **unsynchronized one-sided puts into persistent buffers with
sentinel-based completion detection**.

Layout.  Each coordinator<->worker link is a pair of single-producer/
single-consumer byte rings, one per direction, each in its own
:class:`multiprocessing.shared_memory.SharedMemory` segment::

    offset  0   u64  head   (reserved; writer progress, informational)
    offset  8   u64  tail   (reader-owned: total bytes consumed)
    offset 16   data[capacity]

Frames are contiguous (never split across the wrap) and 8-aligned::

    u32  len      payload byte count; bit 31 flags a spill frame
    u32  seq      per-ring frame counter (torn-frame detection)
    u8   payload[len]
    u8   sentinel 0xC5, written LAST — the commit
    ...  padding to the next 8-byte boundary

Ownership rules (the CkDirect discipline):

* The writer owns every byte from the commit word forward; the reader
  never reads the writer's progress.  Completion is detected the
  paper's way: the reader finds a non-zero length word at its tail,
  then polls the frame's trailing **sentinel** byte.  Write order is
  payload, seq, len, sentinel — each a single aligned store — so on a
  total-store-order host (x86-64, the supported platform) a visible
  length word implies a visible payload, and the sentinel is the
  final unambiguous commit.
* The commit word the reader will poll next is **zeroed ahead** by
  the writer: committing a frame at ``p`` with extent ``t`` first
  zeroes the 4-byte word at ``p + t``.  The reader only ever polls a
  position after consuming the frame before it, so the word it polls
  is always either still zero (no frame yet) or a committed length —
  stale bytes from previous laps are never interpreted.  The reader
  consumes without writing anything but its own ``tail``, which the
  writer reads only when its cached free-space estimate runs out
  (lazy, like the paper's receiver-side polling).
* If the contiguous space to the end of the ring is too small for a
  frame, the writer stores the 4-byte ``WRAP`` marker there — after
  fully committing the frame at offset 0 — and the reader skips.
* A frame larger than **half** the ring **spills**: the payload moves
  through a one-shot shared-memory segment whose name travels in a
  small spill frame; the reader attaches, copies, and unlinks it.
  (Half, not whole: a wrapping write must reserve the dead bytes to
  the edge *plus* the frame at offset 0, up to twice the frame's
  extent — a bigger in-ring frame could find the ring drained and
  still never fit, spinning forever against a live peer.)

Corruption: a length word whose implied extent oversteps the ring
edge, or a frame whose ``seq`` is not the reader's expected next
counter, is *torn* — :class:`TornFrameError`, never silent garbage.
Both checks are O(1) per frame; the hot path deliberately carries no
per-byte checksum (the ring is cache-coherent local memory, not a
network), which is what lets it undercut the pipe's two kernel
copies.  The reader unpickles **in place** through a memoryview of
the ring — the receive side copies nothing.

Liveness: rings cannot signal peer death, so each channel carries a
data-free *lifeline* pipe.  EOF on the lifeline while the ring is
drained is exactly a Connection's EOF — ``recv`` raises
:class:`EOFError`, ``send`` into a dead reader raises
:class:`BrokenPipeError` — so supervision's crash detection works
unchanged, and a worker killed mid-window is noticed at pipe speed,
not at the hang deadline.

Hygiene: every segment this process creates is recorded in a registry
and unlinked by ``atexit`` even on exception paths;
:meth:`ShmChannel.unlink` additionally sweeps ``/dev/shm`` for the
channel's name prefix, reclaiming spill segments a SIGKILL'd worker
left behind, and unregisters swept names from the
``multiprocessing.resource_tracker`` so no spurious leak warnings
fire at interpreter shutdown.  Supervised restarts build a **fresh**
channel per incarnation (a crashed writer may have left a half-built
frame) and unlink the dead incarnation's segments on reap.

The reference pipe transport also goes through this module
(:class:`PipeChannel`): the whole window is serialized once with
``pickle.HIGHEST_PROTOCOL`` and shipped with a single
``send_bytes`` — one frame per window — so the pipe-vs-shm
comparison in ``benchmarks/test_transport_micro.py`` measures the
transport, not the serializer.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import struct
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "RING_BYTES",
    "TransportError",
    "TornFrameError",
    "channel_pair",
    "PipeChannel",
    "ShmChannel",
    "active_segments",
    "segment_prefix",
]


class TransportError(RuntimeError):
    """A wire invariant was violated."""


class TornFrameError(TransportError):
    """A committed frame failed structural validation: its length
    word oversteps the ring edge, or its sequence number is not the
    reader's expected next frame."""


#: Per-direction ring capacity in bytes (a multiple of 8).
RING_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Segment registry & hygiene
# ---------------------------------------------------------------------------

_NS = "reproshm"
_counter = itertools.count()
#: names created by THIS process and not yet unlinked.  Children exit
#: via ``os._exit`` (no atexit), so the hook only ever fires in the
#: process that owns the registry entries it sees.
_live: set = set()
_atexit_installed = False


def segment_prefix() -> str:
    """The name prefix of every segment this module ever creates."""
    return _NS + "_"


def _next_name(tag: str) -> str:
    return f"{_NS}_{os.getpid():x}_{next(_counter):x}_{tag}"


def active_segments() -> List[str]:
    """Names created by this process that are not yet unlinked
    (introspection for the leak tests)."""
    return sorted(_live)


def _rt_unregister(name: str) -> None:
    """Best-effort resource_tracker unregister.  POSIX registration
    always carries a leading slash (CPython's ``_make_filename`` /
    attach both prepend it); unregistering any other spelling makes
    the tracker daemon print a spurious KeyError traceback."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover
        return
    try:
        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:
        pass


def _unlink_name(name: str) -> None:
    """Unlink one segment by name, quietly tolerating its absence."""
    _live.discard(name)
    path = "/dev/shm/" + name
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError:
        # No /dev/shm (non-Linux): fall back to an attach-and-unlink.
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            seg.unlink()
        except Exception:
            pass
    _rt_unregister(name)


def _sweep_prefix(prefix: str) -> None:
    """Unlink every /dev/shm entry under ``prefix`` — spill segments a
    killed worker created and never handed over."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return
    for name in entries:
        if name.startswith(prefix):
            _unlink_name(name)


def _atexit_sweep() -> None:
    for name in list(_live):
        _unlink_name(name)


def _create_segment(name: str, size: int):
    from multiprocessing import shared_memory

    global _atexit_installed
    seg = shared_memory.SharedMemory(name=name, create=True, size=size)
    _live.add(name)
    if not _atexit_installed:
        atexit.register(_atexit_sweep)
        _atexit_installed = True
    return seg


# ---------------------------------------------------------------------------
# The SPSC sentinel ring
# ---------------------------------------------------------------------------

_HDR = 16                    # u64 head (reserved) | u64 tail
_HEAD_OFF = 0
_TAIL_OFF = 8
_FRAME_HDR = 8               # u32 len | u32 seq
_SENTINEL = 0xC5
_WRAP = 0xFFFFFFFF
_SPILL_FLAG = 0x8000_0000
_LEN_MASK = 0x7FFF_FFFF
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _align8(n: int) -> int:
    return (n + 7) & ~7


class _Ring:
    """One direction of a channel: an SPSC byte ring over one shared
    segment.  The object is built before the fork and inherited by
    both processes; each process drives exactly one role, so the
    writer-local (``_head``, ``_free``, ``_wseq``) and reader-local
    (``_tail``, ``_rseq``) caches never alias across roles.
    """

    __slots__ = ("seg", "buf", "capacity", "name",
                 "_head", "_free", "_wseq", "_tail", "_rseq", "_pending")

    def __init__(self, seg, capacity: int) -> None:
        self.seg = seg
        self.buf = seg.buf
        self.capacity = capacity
        self.name = seg.name
        self._head = 0     # writer: bytes produced
        self._free = capacity  # writer: known-free bytes (cached)
        self._wseq = 0     # writer: frames produced
        self._tail = 0     # reader: bytes consumed
        self._rseq = 0     # reader: frames consumed
        self._pending = 0  # reader: extent of the frame being read

    # -- writer side ----------------------------------------------------

    def max_payload(self) -> int:
        """Largest payload that can travel in-ring (larger spills)."""
        # A wrapping write needs ``rem + total + 8`` bytes (dead bytes
        # to the edge, the frame at offset 0, the zero-ahead word) and
        # ``rem`` can be as large as ``total - 8``, so only frames with
        # ``2 * total <= capacity`` are guaranteed writable on a fully
        # drained ring from EVERY head offset.  Anything bigger must
        # spill or a send could spin forever against a live peer.
        return (self.capacity - 8) // 2 - 16

    def _refresh_free(self) -> int:
        buf = self.buf
        # The u64 tail is written by the other process; an 8-aligned
        # store is a single instruction on every supported host, but
        # read twice and require agreement so even a torn read can
        # never over-report free space.
        while True:
            (a,) = _U64.unpack_from(buf, _TAIL_OFF)
            (b,) = _U64.unpack_from(buf, _TAIL_OFF)
            if a == b:
                break
        self._free = self.capacity - (self._head - a)
        return self._free

    def try_write(self, payload, flags: int = 0) -> bool:
        """Write one frame; False if the ring lacks space right now."""
        size = len(payload)
        if size == 0:
            # A 0 length word is the reader's "no frame yet" marker: an
            # empty frame would be committed yet permanently invisible,
            # and the frame behind it would then fail the seq check.
            raise TransportError("zero-length frames cannot be framed")
        total = (_FRAME_HDR + size + 8) & ~7  # frame + sentinel, 8-aligned
        cap = self.capacity
        pos = self._head - (self._head // cap) * cap
        rem = cap - pos
        wrap = rem < total
        # +8 reserves the zero-ahead word past the new frame.
        need = (rem + total if wrap else total) + 8
        if self._free < need and self._refresh_free() < need:
            return False
        buf = self.buf
        marker = None
        if wrap:
            # Not enough contiguous room: the frame goes at offset 0
            # and is fully committed there *before* the WRAP marker at
            # ``pos`` publishes the jump.
            marker = _HDR + pos
            self._head += rem
            self._free -= rem
            pos = 0
        base = _HDR + pos
        end = base + _FRAME_HDR + size
        buf[base + _FRAME_HDR:end] = payload
        # Zero the word the reader will poll after this frame, so a
        # stale length from a previous lap can never fake a commit.
        zpos = pos + total
        if zpos >= cap:
            zpos = 0
        _U32.pack_into(buf, _HDR + zpos, 0)
        # Commit order: payload, seq, len, sentinel — aligned single
        # stores; the sentinel lands dead last.
        _U32.pack_into(buf, base + 4, self._wseq & 0xFFFFFFFF)
        _U32.pack_into(buf, base, size | flags)
        buf[end] = _SENTINEL
        if marker is not None:
            _U32.pack_into(buf, marker, _WRAP)
        self._head += total
        self._free -= total
        self._wseq += 1
        return True

    # -- reader side ----------------------------------------------------

    def try_read(self):
        """One committed frame as ``(payload_view, is_spill)`` or None.

        ``payload_view`` is a memoryview INTO the ring: the caller
        must finish with it (e.g. unpickle) and then call
        :meth:`consume` to release the frame's extent — nothing is
        copied on the receive side.  Raises :class:`TornFrameError`
        for a length word whose extent oversteps the ring edge or a
        frame arriving out of sequence.
        """
        buf = self.buf
        cap = self.capacity
        tail = self._tail
        pos = tail - (tail // cap) * cap
        base = _HDR + pos
        (word,) = _U32.unpack_from(buf, base)
        if word == 0:
            return None  # writer has not produced here yet
        if word == _WRAP:
            rem = cap - pos
            tail = self._tail = tail + rem
            _U64.pack_into(buf, _TAIL_OFF, tail)
            pos = 0
            base = _HDR
            (word,) = _U32.unpack_from(buf, base)
            if word == 0:
                return None
        size = word & _LEN_MASK
        total = (_FRAME_HDR + size + 8) & ~7
        if total > cap - pos:
            raise TornFrameError(
                f"frame extent {total}B exceeds the {cap - pos}B to "
                f"the ring edge — corrupted length word"
            )
        end = base + _FRAME_HDR + size
        if buf[end] != _SENTINEL:
            return None  # sentinel not yet landed: frame in flight
        (seq,) = _U32.unpack_from(buf, base + 4)
        if seq != self._rseq & 0xFFFFFFFF:
            raise TornFrameError(
                f"torn frame: seq {seq} where {self._rseq & 0xFFFFFFFF} "
                f"was expected"
            )
        self._pending = total
        return buf[base + _FRAME_HDR:end], bool(word & _SPILL_FLAG)

    def consume(self) -> None:
        """Release the frame returned by the last :meth:`try_read`
        (its memoryview must no longer be referenced)."""
        self._tail += self._pending
        self._rseq += 1
        _U64.pack_into(self.buf, _TAIL_OFF, self._tail)

    def _peek(self) -> bool:
        """Non-consuming readiness probe: True once the frame at the
        tail (looking past a WRAP marker) has its sentinel committed.
        A corrupted length word also reads True so the error surfaces
        through :meth:`try_read`."""
        buf = self.buf
        cap = self.capacity
        tail = self._tail
        pos = tail - (tail // cap) * cap
        (word,) = _U32.unpack_from(buf, _HDR + pos)
        if word == _WRAP:
            pos = 0
            (word,) = _U32.unpack_from(buf, _HDR)
        if word == 0 or word == _WRAP:
            return False
        size = word & _LEN_MASK
        total = (_FRAME_HDR + size + 8) & ~7
        if total > cap - pos:
            return True
        return buf[_HDR + pos + _FRAME_HDR + size] == _SENTINEL


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

#: poll-loop backoff: a short pure-spin window, then sched_yield
#: (free on an idle multi-core host, an immediate CPU handoff to the
#: peer on an oversubscribed one — spinning longer would hold the
#: core for a whole scheduler timeslice), then a sleep ladder for
#: genuinely idle waits (a peer computing a multi-ms window).
_SPIN = 64
_YIELD = 4000
_NAP_SHORT = 5e-5
_NAP_LONG = 5e-4
_NAP_LADDER = 20000
_POLL_SLICE = 0.05


class _ChannelStats:
    __slots__ = ("frames", "bytes", "spills")

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0
        self.spills = 0

    def as_dict(self) -> Dict[str, int]:
        return {"frames": self.frames, "bytes": self.bytes,
                "spills": self.spills}


class PipeChannel:
    """The reference transport: one protocol-5 pickle frame per
    window over a duplex pipe (a single ``send_bytes`` per message
    instead of the Connection's default per-object protocol-4 path).
    """

    __slots__ = ("conn", "stats")

    def __init__(self, conn) -> None:
        self.conn = conn
        self.stats = _ChannelStats()

    def send(self, obj) -> None:
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        self.stats.frames += 1
        self.stats.bytes += len(data)
        self.conn.send_bytes(data)

    def recv(self):
        data = self.conn.recv_bytes()
        self.stats.frames += 1
        self.stats.bytes += len(data)
        return pickle.loads(data)

    def poll(self, timeout: float = 0.0) -> bool:
        return self.conn.poll(timeout)

    def close(self) -> None:
        self.conn.close()

    def unlink(self) -> None:  # interface parity; nothing persistent
        pass


class ShmChannel:
    """One end of a shared-memory link: reads ``rx``, writes ``tx``.

    Both ends are built in the coordinator before the fork; the worker
    inherits its end's mappings through fork and never attaches by
    name (spill segments are the one exception).  ``close`` releases
    only this process's lifeline end; ``unlink`` (creator side, after
    the peer is dead) releases the mappings, unlinks both ring
    segments, and sweeps the channel prefix for stray spills.
    """

    __slots__ = ("rx", "tx", "lifeline", "prefix", "stats",
                 "_spill_n", "_closed")

    def __init__(self, rx: _Ring, tx: _Ring, lifeline, prefix: str) -> None:
        self.rx = rx
        self.tx = tx
        self.lifeline = lifeline
        self.prefix = prefix
        self.stats = _ChannelStats()
        self._spill_n = 0
        self._closed = False

    # -- sending --------------------------------------------------------

    def send(self, obj) -> None:
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        self.stats.frames += 1
        self.stats.bytes += len(data)
        tx = self.tx
        if len(data) > tx.max_payload():
            data = self._spill(data)
            flags = _SPILL_FLAG
            self.stats.spills += 1
        else:
            flags = 0
        spins = 0
        while not tx.try_write(data, flags):
            spins += 1
            if spins & 31 == 0 and self._peer_gone():
                raise BrokenPipeError(
                    "shm transport: peer died with the ring full"
                )
            self._nap(spins)

    def _spill(self, data: bytes) -> bytes:
        """Move an oversized payload through a one-shot segment; the
        ring carries only ``name:nbytes``."""
        self._spill_n += 1
        # Spill names extend the *channel* prefix (plus the spilling
        # process's pid — either end may spill), so the creator-side
        # unlink() sweep reclaims them even after a SIGKILL.
        name = f"{self.prefix}p{os.getpid():x}sp{self._spill_n:x}"
        seg = _create_segment(name, len(data))
        try:
            seg.buf[:len(data)] = data
        finally:
            seg.close()  # the name (and the data) persists until unlink
        return f"{name}:{len(data)}".encode("ascii")

    @staticmethod
    def _read_spill(ref: bytes) -> bytes:
        from multiprocessing import shared_memory

        name, _, nbytes = ref.decode("ascii").partition(":")
        seg = shared_memory.SharedMemory(name=name)
        try:
            data = bytes(seg.buf[:int(nbytes)])
        finally:
            seg.close()
            try:
                seg.unlink()  # reader owns the unlink (and untracking)
            except FileNotFoundError:  # pragma: no cover
                pass
            _live.discard(name)
        return data

    # -- receiving ------------------------------------------------------

    def recv(self):
        frame = self._wait_frame()
        if frame is None:
            raise EOFError
        view, spilled = frame
        try:
            if spilled:
                payload = self._read_spill(bytes(view))
                nbytes = len(payload)
                obj = pickle.loads(payload)
            else:
                # Unpickle straight out of the ring: the receive side
                # copies nothing (loads materializes fresh objects, so
                # nothing outlives the view).
                nbytes = len(view)
                obj = pickle.loads(view)
        finally:
            view.release()
            self.rx.consume()
        self.stats.frames += 1
        self.stats.bytes += nbytes
        return obj

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a frame is committed *or* the peer is gone (the
        Connection convention: EOF counts as readable).

        Unlike the data-path waits, a poll can be a supervisor's
        multi-second deadline watch on a busy or hung shard, so past
        the spin/yield phase the sleep primitive is the *lifeline's*
        ``select`` — the wait blocks in the kernel instead of burning
        a core, and peer death ends it immediately.  The slice starts
        at the short-nap pitch and lengthens once the wait is clearly
        idle; a frame landing mid-slice is noticed at most
        ``_POLL_SLICE`` late, noise next to a wait that long.
        """
        t_end = None if timeout is None else time.monotonic() + timeout
        spins = 0
        while True:
            if self.rx._peek() or self._peer_gone():
                return True
            if t_end is not None and time.monotonic() >= t_end:
                return False
            spins += 1
            if spins < _SPIN:
                continue
            if spins < _YIELD:
                os.sched_yield()
                continue
            slice_ = _NAP_SHORT if spins < _NAP_LADDER else _POLL_SLICE
            if t_end is not None:
                slice_ = min(slice_, max(0.0, t_end - time.monotonic()))
            try:
                if self.lifeline.poll(slice_):
                    return True  # lifeline readable == EOF == peer gone
            except (OSError, ValueError):
                return True

    def _wait_frame(self, timeout=None) -> Optional[Tuple[bytes, bool]]:
        rx = self.rx
        spins = 0
        while True:
            frame = rx.try_read()
            if frame is not None:
                return frame
            if spins & 31 == 0 and self._peer_gone():
                # Drain race: the peer may have committed its final
                # frame and closed in the same window.
                frame = rx.try_read()
                return frame  # None => EOF
            spins += 1
            self._nap(spins)

    # -- liveness & teardown --------------------------------------------

    def _peer_gone(self) -> bool:
        """EOF on the data-free lifeline pipe means the peer closed or
        died; nothing is ever written to it, so readable == EOF."""
        if self._closed:
            return True
        try:
            return self.lifeline.poll(0)
        except (OSError, ValueError):
            return True

    @staticmethod
    def _nap(spins: int) -> None:
        if spins < _SPIN:
            return
        if spins < _YIELD:
            os.sched_yield()
        elif spins < _NAP_LADDER:
            time.sleep(_NAP_SHORT)
        else:
            time.sleep(_NAP_LONG)

    def close(self) -> None:
        """Release this process's lifeline end (mappings die with the
        process; the creator's :meth:`unlink` reclaims the names)."""
        self._closed = True
        try:
            self.lifeline.close()
        except OSError:  # pragma: no cover
            pass

    def unlink(self) -> None:
        """Creator-side reclamation once the peer is dead: drop the
        mappings, unlink both ring segments, and sweep the prefix for
        spill segments a killed peer abandoned."""
        self.close()
        for ring in (self.rx, self.tx):
            try:
                ring.seg.close()
            except Exception:  # pragma: no cover
                pass
            _unlink_name(ring.name)
        _sweep_prefix(self.prefix)


# ---------------------------------------------------------------------------
# Pair construction
# ---------------------------------------------------------------------------


def channel_pair(ctx, transport: str, tag: str = "ch"):
    """Build one coordinator<->worker link: ``(parent_end, child_end)``.

    ``transport`` is a resolved name (``pipe`` or ``shm``).  Both ends
    are fork-inherited; after ``Process.start()`` the parent calls
    ``child_end.close()`` exactly as it would close a pipe's child
    Connection.  The parent end of an shm pair owns the segments:
    call ``parent_end.unlink()`` once the worker is reaped.
    """
    if transport == "pipe":
        parent, child = ctx.Pipe(duplex=True)
        return PipeChannel(parent), PipeChannel(child)
    if transport != "shm":
        raise TransportError(f"unknown transport {transport!r}")
    capacity = RING_BYTES
    prefix = _next_name(tag)
    seg_down = _create_segment(prefix + "d", _HDR + capacity)  # parent->child
    seg_up = _create_segment(prefix + "u", _HDR + capacity)    # child->parent
    down = _Ring(seg_down, capacity)
    up = _Ring(seg_up, capacity)
    life_parent, life_child = ctx.Pipe(duplex=True)
    parent = ShmChannel(rx=up, tx=down, lifeline=life_parent, prefix=prefix)
    child = ShmChannel(rx=down, tx=up, lifeline=life_child, prefix=prefix)
    return parent, child


def merge_channel_stats(
    transport: str, channels: Iterable[Any],
) -> Dict[str, Any]:
    """Fold the parent-end counters of one run into a report dict
    (surfaced as ``Runtime.transport_stats`` and via ``repro
    profile`` / the serve ``/metrics`` engine block)."""
    out: Dict[str, Any] = {"transport": transport, "frames": 0,
                           "bytes": 0, "spills": 0}
    for ch in channels:
        stats = getattr(ch, "stats", None)
        if stats is None:
            continue
        out["frames"] += stats.frames
        out["bytes"] += stats.bytes
        out["spills"] += stats.spills
    return out
