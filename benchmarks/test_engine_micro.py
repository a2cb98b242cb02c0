"""Microbenchmark: DES hot-path cost per event across queue variants.

The simulator's ``run()`` loop is the constant factor every artifact
in this repo pays — tables, figures, and ablations are all millions of
``(pop, fire, schedule)`` cycles.  This benchmark pins three engines
against each other:

* the *legacy* replica — the engine as it stood before the tuple-heap
  optimization (``Event`` objects on the heap compared through
  ``Event.__lt__`` → ``sort_key()`` tuple allocation, kwargs dict
  always allocated);
* the *heap* reference — today's ``Simulator``;
* the *calendar* queue — :class:`repro.sim.eventq.CalendarSimulator`
  (pure Python) and, when built, the compiled core
  (``--eventq compiled``).

The workload is the simulator's real usage profile: several
self-rescheduling event chains progressing concurrently in virtual
time (what a multi-PE run generates — each PE is its own
pingpong-style chain), a fan-out/fan-in burst (multicast-style), and a
fraction of superseded timeouts that fire and return at once (the
reliability layer's retransmit timers: scheduling is one-way, so a
timer that is no longer wanted checks its stamp and does nothing).

Methodology: each engine is timed over ``ROUNDS`` full workload runs
and scored by the **median**, not the best — a single timed run (or a
best-of) tracks scheduler tail luck, which made the old guard flaky
on loaded CI machines.  The assertions are the issue's acceptance
bars: ≥15% below legacy for the heap (re-baselined against the median
methodology), ≥1.3× heap for the pure-Python calendar, ≥2.5× heap for
the compiled core.  The last recorded run
(``benchmarks/results/engine_micro.txt``) landed at 50.1%, 1.96× and
5.61× respectively.
"""

from __future__ import annotations

import heapq
import statistics
import time

from conftest import record_stage, save_report
from repro.sim.engine import Simulator
from repro.sim.eventq import (
    CalendarSimulator,
    CompiledSimulator,
    compiled_available,
)

import pytest

ROUNDS = 5  # median-of to shed scheduler noise (>= 3 required)


# ---------------------------------------------------------------------------
# Legacy engine replica (the pre-optimization hot path, verbatim semantics)
# ---------------------------------------------------------------------------


class _LegacyEvent:
    __slots__ = ("time", "priority", "seq", "fn", "args", "kwargs", "_cancelled")

    def __init__(self, time, priority, seq, fn, args, kwargs):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kwargs = kwargs or {}
        self._cancelled = False

    def sort_key(self):
        return (self.time, self.priority, self.seq)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def cancel(self):
        self._cancelled = True

    def fire(self):
        if not self._cancelled:
            self.fn(*self.args, **self.kwargs)


class _LegacySimulator:
    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._seq = 0
        self._events_processed = 0

    @property
    def now(self):
        return self._now

    @property
    def events_processed(self):
        return self._events_processed

    def schedule(self, delay, fn, *args, priority=0, **kwargs):
        return self.at(self._now + delay, fn, *args, priority=priority, **kwargs)

    def at(self, time, fn, *args, priority=0, **kwargs):
        ev = _LegacyEvent(time, priority, self._seq, fn, args, kwargs)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def run(self):
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev._cancelled:
                continue
            self._now = ev.time
            self._events_processed += 1
            ev.fire()


# ---------------------------------------------------------------------------
# Workload (engine-agnostic: all simulators expose schedule/run)
# ---------------------------------------------------------------------------

CHAIN_EVENTS = 60_000   # total hops, split across the lanes
CHAIN_LANES = 8         # concurrent chains ≈ concurrent PEs in a run
FAN_BATCHES = 400
FAN_WIDTH = 64
TIMEOUT_EVERY = 8


def _workload(sim) -> int:
    """The usage profile the artifacts generate; returns events fired."""
    per_lane = CHAIN_EVENTS // CHAIN_LANES
    state = [0] * CHAIN_LANES

    def hop(lane):
        state[lane] += 1
        if state[lane] < per_lane:
            sim.schedule(1e-6, hop, lane)

    def leaf():
        pass

    # Newest acknowledged batch: its timeouts, and every earlier
    # batch's, are superseded.
    acked = [-1]

    def timeout(batch):
        if batch <= acked[0]:
            return  # superseded: fires as a no-op

    def burst(i):
        for k in range(FAN_WIDTH):
            if k % TIMEOUT_EVERY == 0:
                sim.schedule(1e-6 + k * 1e-9, timeout, i)
            else:
                sim.schedule(1e-6 + k * 1e-9, leaf)
        acked[0] = i  # the batch completed: its timeouts go stale
        if i + 1 < FAN_BATCHES:
            sim.schedule(2e-6, burst, i + 1)

    for lane in range(CHAIN_LANES):
        sim.schedule(1e-6 + lane * 1e-8, hop, lane)
    sim.schedule(1e-6, burst, 0)
    sim.run()
    return sim.events_processed


def _time_us_per_event(sim_factory) -> float:
    """Median µs/event over ROUNDS full workload runs."""
    samples = []
    for _ in range(ROUNDS):
        sim = sim_factory()
        t0 = time.perf_counter()
        fired = _workload(sim)
        dt = time.perf_counter() - t0
        samples.append(dt / fired * 1e6)
    return statistics.median(samples)


def _report_and_record():
    """Time every available engine once; cache for all assertions."""
    rows = {
        "legacy": _time_us_per_event(_LegacySimulator),
        "heap": _time_us_per_event(Simulator),
        "calendar": _time_us_per_event(CalendarSimulator),
    }
    if compiled_available():
        rows["calendar-c"] = _time_us_per_event(CompiledSimulator)
    return rows


_rows_cache = {}


def _rows():
    if not _rows_cache:
        _rows_cache.update(_report_and_record())
        lines = [
            "Engine microbench: us per event (median of %d rounds)" % ROUNDS,
            "=" * 54,
        ]
        heap_us = _rows_cache["heap"]
        for name, us in _rows_cache.items():
            rel = (f"  ({heap_us / us:.2f}x vs heap)"
                   if name not in ("heap", "legacy") else "")
            lines.append(f"{name:<26}: {us:.3f} us/event{rel}")
        improvement = ((_rows_cache["legacy"] - heap_us)
                       / _rows_cache["legacy"] * 100.0)
        lines.append(f"heap vs legacy improvement: {improvement:.1f}%")
        save_report("engine_micro", "\n".join(lines))
        record_stage("engine_micro", {
            "rounds": ROUNDS,
            "us_per_event": {k: round(v, 4) for k, v in _rows_cache.items()},
            "calendar_speedup_vs_heap": round(
                heap_us / _rows_cache["calendar"], 3),
            "compiled_speedup_vs_heap": (
                round(heap_us / _rows_cache["calendar-c"], 3)
                if "calendar-c" in _rows_cache else None),
        })
    return _rows_cache


def test_hot_path_speedup(benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    improvement = (rows["legacy"] - rows["heap"]) / rows["legacy"] * 100.0
    assert improvement >= 15.0, (
        f"hot-path optimization regressed: only {improvement:.1f}% "
        f"({rows['legacy']:.3f} -> {rows['heap']:.3f} us/event)"
    )


def test_calendar_speedup():
    rows = _rows()
    speedup = rows["heap"] / rows["calendar"]
    assert speedup >= 1.3, (
        f"pure-Python calendar queue below the 1.3x bar: {speedup:.2f}x "
        f"({rows['heap']:.3f} -> {rows['calendar']:.3f} us/event)"
    )


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled core not built")
def test_compiled_speedup():
    rows = _rows()
    speedup = rows["heap"] / rows["calendar-c"]
    assert speedup >= 2.5, (
        f"compiled calendar core below the 2.5x bar: {speedup:.2f}x "
        f"({rows['heap']:.3f} -> {rows['calendar-c']:.3f} us/event)"
    )


def test_event_order_unchanged():
    """Every engine fires the identical event sequence (the queue swap
    must be timing-only)."""
    def trace(sim):
        order = []
        def hop(tag):
            order.append((round(sim.now * 1e9), tag))
            if len(order) < 500:
                sim.schedule(1e-6, hop, len(order))
        sim.schedule(1e-6, hop, "a")
        sim.schedule(1e-6, hop, "b", priority=-1)
        sim.run()
        return order

    ref = trace(Simulator())
    assert ref == trace(_LegacySimulator())
    assert ref == trace(CalendarSimulator())
    if compiled_available():
        assert ref == trace(CompiledSimulator())
