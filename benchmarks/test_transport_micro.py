"""Microbenchmark: per-window shard-transport cost, pipe vs shm.

The sharded engine moves one frame per shard per epoch window, so
the transport's per-window cost is pure overhead on the critical
path — the sharded run does nothing else while a window frame is in
flight.  This benchmark pins the
shared-memory ring transport against the pickle-over-pipe reference
on that exact unit of work:

* **loopback µs/window** — send one window frame and receive it in
  the same process.  This isolates what the transport itself burns
  (framing, copies, syscalls) from scheduler handoff: on the 1-CPU
  CI container a cross-process ping-pong is dominated by ~60µs of
  involuntary context switching *whichever* transport carries it.
  The pipe pays two kernel copies plus a syscall pair per frame; the
  shm ring pays one user-space copy in and zero out (the receiver
  unpickles straight out of the ring).  The acceptance bar — shm at
  ≤0.85× pipe, i.e. ≥15% less per-window transport work — is
  asserted on the loopback totals.
* **cross-process streaming MB/s** — bulk frames through a forked
  drainer, the regime where ring capacity lets the writer run ahead.
  Reported for trend tracking, not gated: on a single core both
  transports are throttled by the same scheduler handoffs.

Each window payload is a list of per-record byte strings with
**distinct** contents — identical records would be memoized into one
object by pickle and shrink the frame by 50×.  Loopback windows stay
under 60 KB because a pipe loopback larger than the 64 KiB pipe
buffer deadlocks (nobody drains while the sender blocks).

Methodology matches ``test_engine_micro``: ``ROUNDS`` timed runs per
transport, scored by the **median** to shed scheduler tail noise.
"""

from __future__ import annotations

import multiprocessing as mp
import statistics
import time

import numpy as np
from conftest import record_stage, save_report
from repro.sim.shm import channel_pair

ROUNDS = 5
WINDOWS = 200          # frames per timed loopback run
STREAM_FRAMES = 48     # frames per streaming run
STREAM_BYTES = 1 << 18  # 256 KiB per streaming frame

#: label -> (records per window, bytes per record); totals stay well
#: under the 64 KiB pipe buffer (see module docstring).
_WINDOWS = {
    "1KB": (16, 64),
    "8KB": (32, 256),
    "48KB": (48, 1024),
}

CTX = mp.get_context("fork")


def _make_window(n_records: int, record_bytes: int, seed: int):
    """One window payload: distinct-content records (no pickle memo)."""
    rng = np.random.default_rng(seed)
    return [(i, rng.bytes(record_bytes)) for i in range(n_records)]


def _loopback_us_per_window(transport: str, window) -> float:
    """Median per-window send+recv cost with both ends in-process."""
    samples = []
    for _ in range(ROUNDS):
        parent, child = channel_pair(CTX, transport, "ubench")
        try:
            parent.send(window)  # warm the path (first-touch, pickles)
            child.recv()
            t0 = time.perf_counter()
            for _ in range(WINDOWS):
                parent.send(window)
                child.recv()
            samples.append((time.perf_counter() - t0) / WINDOWS * 1e6)
        finally:
            child.close()
            parent.unlink()
    return statistics.median(samples)


def _drain(conn, n_frames: int) -> None:
    for _ in range(n_frames):
        conn.recv()
    conn.send("drained")
    conn.close()


def _stream_mb_per_s(transport: str) -> float:
    """Median cross-process bulk throughput (fork a drainer child)."""
    frames = [_make_window(1, STREAM_BYTES, seed)[0][1]
              for seed in range(STREAM_FRAMES)]
    samples = []
    for _ in range(ROUNDS):
        parent, child = channel_pair(CTX, transport, "ustream")
        proc = CTX.Process(target=_drain, args=(child, STREAM_FRAMES))
        proc.start()
        child.close()
        try:
            t0 = time.perf_counter()
            for frame in frames:
                parent.send(frame)
            assert parent.recv() == "drained"
            wall = time.perf_counter() - t0
            samples.append(STREAM_FRAMES * STREAM_BYTES / wall / 2**20)
        finally:
            proc.join()
            parent.unlink()
    return statistics.median(samples)


def test_transport_micro():
    loop = {}
    for label, (n, nbytes) in _WINDOWS.items():
        window = _make_window(n, nbytes, seed=len(label))
        loop[label] = {t: _loopback_us_per_window(t, window)
                       for t in ("pipe", "shm")}
    stream = {t: _stream_mb_per_s(t) for t in ("pipe", "shm")}

    pipe_total = sum(v["pipe"] for v in loop.values())
    shm_total = sum(v["shm"] for v in loop.values())
    ratio = shm_total / pipe_total

    lines = ["transport microbench: per-window cost, pipe vs shm",
             f"(loopback, median of {ROUNDS} x {WINDOWS} windows)", "",
             f"{'window':<8} {'pipe us':>10} {'shm us':>10} {'shm/pipe':>10}"]
    for label, v in loop.items():
        lines.append(f"{label:<8} {v['pipe']:>10.2f} {v['shm']:>10.2f} "
                     f"{v['shm'] / v['pipe']:>10.2f}")
    lines.append(f"{'total':<8} {pipe_total:>10.2f} {shm_total:>10.2f} "
                 f"{ratio:>10.2f}")
    lines.append("")
    lines.append(f"streaming (cross-process, {STREAM_BYTES >> 10} KiB "
                 f"frames): pipe {stream['pipe']:.0f} MB/s, "
                 f"shm {stream['shm']:.0f} MB/s")
    save_report("transport_micro", "\n".join(lines))
    record_stage("transport_micro", {
        "loopback_us_per_window": loop,
        "loopback_shm_over_pipe": round(ratio, 4),
        "stream_mb_per_s": {k: round(v, 1) for k, v in stream.items()},
    })

    # the issue's acceptance bar: >= 15% less per-window transport work
    assert ratio <= 0.85, (
        f"shm must cost <= 0.85x pipe per window, measured {ratio:.3f}"
    )
