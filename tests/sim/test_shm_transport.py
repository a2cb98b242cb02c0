"""The shared-memory shard transport: rings, framing, and parity.

Three layers of contract:

* **ring mechanics** — frames wrap the ring edge losslessly, a frame
  whose sentinel byte has not landed is invisible, oversized payloads
  spill through one-shot segments, and structural corruption (a
  length word overstepping the ring edge, a wrong sequence number)
  raises :class:`TornFrameError` instead of delivering garbage;
* **hygiene** — every ``/dev/shm`` segment the transport creates is
  unlinked by the time a run returns, including runs that restart a
  SIGKILL'd shard or degrade to serial on an exhausted budget (checked
  after every test by the no-leak guard in ``tests/conftest.py``);
* **parity** — results over shm are bit-identical to pipe and to a
  serial run, per app, per engine, at any shard count.

SURVEYOR at 16 PEs = 4 nodes (4 cores/node), so ``shards=4`` forks
four real worker processes.
"""

import hashlib
import multiprocessing as mp
import pickle
import struct
import time

import numpy as np
import pytest

from repro.faults import ProcFaultPlan
from repro.network.params import ABE, SURVEYOR
from repro.resilience import supervisor
from repro.sim import shm
from repro.sim.shm import TornFrameError, TransportError, channel_pair

CTX = mp.get_context("fork")


def _shm_pair(tag):
    """An in-process pair (both ends share the pre-fork mappings)."""
    return channel_pair(CTX, "shm", tag)


# ---------------------------------------------------------------------------
# Ring mechanics
# ---------------------------------------------------------------------------


def test_ring_wraps_losslessly(monkeypatch):
    """Many varied-size frames through a tiny ring force repeated
    wrap-arounds; every payload must come back bit-exact, in order."""
    monkeypatch.setattr(shm, "RING_BYTES", 4096)
    parent, child = _shm_pair("wrap")
    try:
        rng = np.random.default_rng(0xC5)
        sent = []
        for i in range(400):
            size = int(rng.integers(1, 700))
            obj = (i, rng.bytes(size))
            sent.append(obj)
            parent.send(obj)        # interleaved: the in-process
            assert child.recv() == sent[-1]  # reader drains each frame
        # head has lapped the 4 KiB ring many times over
        assert parent.tx._head > 10 * 4096
        assert parent.tx._head == child.rx._tail
    finally:
        child.close()
        parent.unlink()


def test_frame_invisible_until_sentinel_lands():
    """A frame with payload, seq, and length committed but no
    sentinel byte must not be readable; landing the sentinel makes
    it readable (the paper's completion-by-last-byte contract)."""
    parent, child = _shm_pair("sent")
    try:
        ring = parent.tx
        payload = pickle.dumps("landed", pickle.HIGHEST_PROTOCOL)
        base = shm._HDR  # pos 0 in a fresh ring
        end = base + shm._FRAME_HDR + len(payload)
        ring.buf[base + shm._FRAME_HDR:end] = payload
        struct.pack_into("<I", ring.buf, base + 4, 0)       # seq
        struct.pack_into("<I", ring.buf, base, len(payload))  # len
        assert child.poll(0.0) is False
        assert child.rx.try_read() is None
        ring.buf[end] = shm._SENTINEL                        # commit
        assert child.poll(0.0) is True
        view, spilled = child.rx.try_read()
        assert not spilled and pickle.loads(view) == "landed"
        view.release()
    finally:
        child.close()
        parent.unlink()


class _HeapSeg:
    """A ``_Ring`` backing store on plain process memory — exercises
    the ring arithmetic without touching ``/dev/shm``."""

    def __init__(self, size):
        self.buf = memoryview(bytearray(size))
        self.name = "heap"

    def close(self):
        pass


def test_max_payload_frame_fits_at_every_head_offset():
    """Regression: a wrapping write must reserve the dead bytes to the
    ring edge *plus* the relocated frame, so any payload ``send``
    keeps in-ring has to fit on a drained ring from EVERY head offset.
    The old ``capacity - 32`` bound admitted half-ring-plus frames
    that could never satisfy that reservation — ``try_write`` returned
    False forever and ``send`` spun against a live peer."""
    cap = 4096
    probe = shm._Ring(_HeapSeg(shm._HDR + cap), cap)
    # the wrap worst case needs 2x the frame extent; max_payload must
    # guarantee it fits
    extent = (probe.max_payload() + shm._FRAME_HDR + 8) & ~7
    assert 2 * extent <= cap
    big = b"\xa5" * probe.max_payload()
    # reachable head offsets are 0 and every multiple of 8 >= 16
    for offset in (0, *range(16, cap, 8)):
        ring = shm._Ring(_HeapSeg(shm._HDR + cap), cap)
        if offset:
            # one filler frame of extent == offset, drained immediately
            assert ring.try_write(b"\0" * (offset - 9))
            view, _ = ring.try_read()
            view.release()
            ring.consume()
            assert ring._head == offset
        assert ring.try_write(big), f"max payload stuck at offset {offset}"
        view, _ = ring.try_read()
        assert bytes(view) == big
        view.release()
        ring.consume()


def test_over_half_ring_payload_spills_not_deadlocks(monkeypatch):
    """A payload past half the ring takes the spill path — in-ring it
    could find the ring fully drained and still never fit once a wrap
    is needed — and the ring path stays healthy around it."""
    monkeypatch.setattr(shm, "RING_BYTES", 4096)
    parent, child = _shm_pair("half")
    try:
        big = b"y" * 2080  # pickles past half the 4 KiB ring
        for i in range(8):
            mid = b"m" * (1500 + 8 * i)  # in-ring; walks the head
            parent.send(mid)
            assert child.recv() == mid
            parent.send(big)
            assert child.recv() == big
        assert parent.stats.spills == 8
    finally:
        child.close()
        parent.unlink()


def test_zero_length_frame_rejected():
    """A 0 length word is the reader's 'no frame yet' marker: framing
    an empty payload would commit a permanently invisible frame and
    desync the seq check on the frame behind it."""
    ring = shm._Ring(_HeapSeg(shm._HDR + 4096), 4096)
    with pytest.raises(TransportError, match="zero-length"):
        ring.try_write(b"")


def test_poll_wakes_on_peer_death_mid_timeout():
    """A long poll parks in the lifeline's select once the ring stays
    quiet; the peer dying mid-slice must wake it immediately (EOF
    counts as readable, the Connection convention), not at the
    timeout."""
    parent, child = _shm_pair("pollwake")

    def _worker(ch):
        time.sleep(0.4)
        ch.close()

    proc = CTX.Process(target=_worker, args=(child,))
    proc.start()
    child.close()
    try:
        t0 = time.monotonic()
        assert parent.poll(30.0) is True
        assert time.monotonic() - t0 < 10.0
    finally:
        proc.join()
        parent.unlink()


def test_oversized_payload_spills(monkeypatch):
    """A payload larger than the ring travels through a one-shot
    spill segment and the segment is gone after the read."""
    monkeypatch.setattr(shm, "RING_BYTES", 4096)
    parent, child = _shm_pair("spill")
    try:
        blob = bytes(range(256)) * 48  # 12 KiB > 4 KiB ring
        parent.send(blob)
        assert parent.stats.spills == 1
        assert child.recv() == blob
        parent.send("small")  # ring path still healthy after a spill
        assert child.recv() == "small"
        assert parent.stats.spills == 1
    finally:
        child.close()
        parent.unlink()


def test_corrupt_length_raises_torn_frame():
    """A length word overstepping the ring edge is structurally
    impossible for a committed frame — the reader must refuse it."""
    parent, child = _shm_pair("tornlen")
    try:
        parent.send("victim")
        struct.pack_into("<I", child.rx.buf, shm._HDR, 0x7FFFFF0)
        with pytest.raises(TornFrameError, match="exceeds"):
            child.recv()
    finally:
        child.close()
        parent.unlink()


def test_corrupt_seq_raises_torn_frame():
    """A committed frame whose sequence number is not the reader's
    expected next frame signals lost or replayed data."""
    parent, child = _shm_pair("tornseq")
    try:
        parent.send("victim")
        struct.pack_into("<I", child.rx.buf, shm._HDR + 4, 99)
        with pytest.raises(TornFrameError, match="seq"):
            child.recv()
    finally:
        child.close()
        parent.unlink()


def test_peer_death_is_eof():
    """Connection semantics survive the transport swap: recv on a
    channel whose peer exited raises EOFError after the drain."""
    parent, child = _shm_pair("eof")

    def _worker(ch):
        ch.send("last words")
        ch.close()

    proc = CTX.Process(target=_worker, args=(child,))
    proc.start()
    child.close()
    try:
        assert parent.recv() == "last words"
        with pytest.raises(EOFError):
            parent.recv()
        with pytest.raises(BrokenPipeError):
            for _ in range(10_000):  # until the full-ring check trips
                parent.send(b"x" * 4096)
    finally:
        proc.join()
        parent.unlink()


# ---------------------------------------------------------------------------
# Bit-identity: pipe|shm x conservative|optimistic x app x shards
# ---------------------------------------------------------------------------


def _stencil(shards, **kw):
    from repro.apps.stencil.driver import gather_grid, run_stencil

    r = run_stencil(SURVEYOR, 16, domain=(16, 16, 16), vr=2, iterations=3,
                    mode="ckd", validate=True, keep_runtime=True,
                    shards=shards, **kw)
    return r, gather_grid(r)


def _matmul(shards, **kw):
    from repro.apps.matmul.driver import gather_c, run_matmul

    r = run_matmul(ABE, 16, N=32, c=2, iterations=3, mode="ckd",
                   validate=True, keep_runtime=True, shards=shards, **kw)
    return r, gather_c(r)


def _openatom(shards, **kw):
    from repro.apps.openatom.driver import abe_2cpn, run_openatom

    r = run_openatom(abe_2cpn(ABE), 16, mode="ckd", validate=True,
                     keep_runtime=True, shards=shards, nstates=8, nplanes=2,
                     grain=4, points_per_plane=64, iterations=2,
                     rest_rounds=2, **kw)
    state = []
    for arr in r.runtime.arrays.values():
        if arr.internal:
            continue
        for idx in sorted(arr.elements):
            elem = arr.elements[idx]
            if getattr(elem, "points", None) is not None:
                state.append(np.ravel(elem.points))
            elif getattr(elem, "left", None) is not None:
                state.extend([np.ravel(elem.left), np.ravel(elem.right)])
    return r, np.concatenate(state)


#: app -> (runner, real shard count on that app's machine)
_APPS = {"stencil": (_stencil, 4), "matmul": (_matmul, 2),
         "openatom": (_openatom, 4)}


@pytest.fixture(scope="module")
def serial_baseline():
    """Serial (shards=1) state + timings per app — transport never
    enters the picture at one shard, so this is the reference."""
    out = {}
    for name, (fn, _shards) in _APPS.items():
        r, state = fn(shards=1)
        out[name] = (state, r.events,
                     getattr(r, "iter_times", None) or r.step_times)
    return out


@pytest.mark.parametrize("engine", ["conservative", "optimistic"])
@pytest.mark.parametrize("app", sorted(_APPS))
@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_sharded_run_is_bit_identical(serial_baseline, transport, app,
                                      engine):
    state0, events0, times0 = serial_baseline[app]
    fn, shards = _APPS[app]
    r, state = fn(shards=shards, transport=transport, engine=engine)
    assert np.array_equal(state, state0)
    assert r.events == events0
    times = getattr(r, "iter_times", None) or r.step_times
    assert times == times0


def test_transport_stats_surfaced_on_shm_run():
    r, _ = _stencil(shards=4, transport="shm")
    ts = r.runtime.transport_stats
    assert ts is not None and ts["transport"] == "shm"
    assert ts["frames"] > 0 and ts["bytes"] > 0
    assert ts["spills"] >= 0


# ---------------------------------------------------------------------------
# Supervision over shm: restart and degrade without leaking segments
# ---------------------------------------------------------------------------


def _sup_digest(result):
    from repro.apps.stencil.driver import gather_grid

    return hashlib.sha256(gather_grid(result).tobytes()).hexdigest()


def test_supervisor_restart_over_shm(serial_baseline):
    """A SIGKILL'd shard is restarted on pristine rings; the replayed
    run stays bit-identical and the dead incarnation's segments are
    reclaimed."""
    state0, events0, _ = serial_baseline["stencil"]
    r, state = _stencil(shards=4, transport="shm",
                        proc_faults=ProcFaultPlan.named("kill-shard"))
    sup = r.runtime.supervision
    assert sup["restarts"] == 1 and sup["crashes"] == 1
    assert np.array_equal(state, state0)
    assert r.events == events0
    ts = r.runtime.transport_stats
    assert ts["transport"] == "shm" and ts["frames"] > 0


def test_budget_exhausted_degrade_over_shm(serial_baseline, monkeypatch):
    """Zero restart budget + a killed shard: the run degrades to the
    serial engine, still bit-identical, and every segment of the
    abandoned parallel attempt is unlinked."""
    monkeypatch.setattr(supervisor, "MAX_RESTARTS", 0)
    state0, events0, _ = serial_baseline["stencil"]
    r, state = _stencil(shards=4, transport="shm",
                        proc_faults=ProcFaultPlan.named("kill-shard"))
    sup = r.runtime.supervision
    assert sup["degraded"] and sup["restarts"] == 0
    assert np.array_equal(state, state0)
    assert r.events == events0
