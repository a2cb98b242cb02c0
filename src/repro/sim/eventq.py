"""Pluggable event-queue implementations for the DES core.

The engine's reference implementation is the tuple-keyed binary heap
inside :class:`~repro.sim.engine.Simulator`.  This module adds the
alternatives and the selection machinery:

* :class:`CalendarSimulator` — a pure-Python *ladder* variant of a
  calendar queue tuned for the engine's near-future-heavy schedule
  distribution (most events land close behind the last one already
  queued).  Two rungs: a sorted *current* rung drained by a read
  pointer (pops are O(1) index steps, no sift), and an unsorted
  *future* rung that takes O(1) appends and is sorted once per refill
  by C Timsort.  New events that precede the current rung's tail are
  placed by ``bisect.insort`` — a C binary search plus ``memmove``,
  cheaper than a heap sift for the rung sizes the fabrics produce.
* ``CompiledSimulator`` — the same structure compiled to native code
  (:mod:`repro.sim._ceventq`, hand-written C built optionally by
  ``setup.py``); present only when the extension is importable.

``auto`` is a build-time choice, not a class: the compiled core when
it is built, else the reference heap.

Every implementation preserves the deterministic ``(time, priority,
seq)`` total order, so **simulation results are bit-identical across
implementations** — ``--eventq`` is a wall-clock knob exactly like
``--jobs`` and ``--shards``, and it is deliberately *not* part of
:data:`repro.sweep.spec.ENGINE_SCHEMA` digests.

:func:`make_simulator` takes an explicit ``eventq=``, else the run
configuration's (:mod:`repro.config`).
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, List, Optional, Tuple

from ..config import RunConfig, current
from .engine import _COMPACT_MIN, SimulationError, Simulator
from .event import Event

try:  # the optional compiled core (see setup.py / _ceventq.c)
    from . import _ceventq
except ImportError:  # pragma: no cover - depends on the build
    _ceventq = None

#: Drop the consumed current-rung prefix once the read pointer passes
#: this, so a rung that never fully drains (self-rescheduling chains
#: insort ahead of the pointer) cannot grow without bound.
_TRIM_POS = 4096


def compiled_available() -> bool:
    """True when the native :mod:`repro.sim._ceventq` core is importable."""
    return _ceventq is not None


def eventq_name(sim: Any) -> str:
    """The implementation name a simulator instance runs on."""
    return getattr(sim, "eventq_name", type(sim).__name__)


# ---------------------------------------------------------------------------
# Pure-Python calendar (ladder) queue
# ---------------------------------------------------------------------------


class CalendarSimulator(Simulator):
    """The ladder-variant calendar queue, pure Python.

    Storage replaces the base heap entirely:

    ``_cur``
        The current rung: ``(time, priority, seq, Event)`` tuples in
        ascending order from index ``_pos`` on.  Entries before
        ``_pos`` are consumed and periodically trimmed.
    ``_top``
        The future rung: unsorted entries, each ordering at or after
        ``_cur``'s last entry.  Sorted wholesale (C Timsort) when the
        current rung drains.

    Invariant: every ``_top`` entry orders >= every *unread* ``_cur``
    entry, so draining ``_cur`` then sorting ``_top`` pops the global
    ``(time, priority, seq)`` order — bit-identical to the heap.

    Cancellation accounting mirrors the heap engine but is maintained
    per-implementation: ``_cancelled_in_heap`` counts cancelled
    entries still queued in either rung, and :meth:`_compact` filters
    both rungs *in place* (the run loops hold local aliases to
    ``_cur`` and re-read its length after every callback, so an
    in-callback mass-cancel never strands a stale rung list — the
    calendar analogue of the heap engine's in-place ``_compact``).
    """

    eventq_name = "calendar"

    def __init__(self) -> None:
        super().__init__()
        del self._heap  # misuse of the base storage should fail loudly
        self._cur: List[Tuple[float, int, int, Event]] = []
        self._pos: int = 0
        self._top: List[Tuple[float, int, int, Event]] = []

    # -- introspection --------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of queued events (including cancelled ones)."""
        return len(self._cur) - self._pos + len(self._top)

    @property
    def pending_active(self) -> int:
        """Number of *live* (non-cancelled) queued events."""
        return len(self._cur) - self._pos + len(self._top) \
            - self._cancelled_in_heap

    # -- scheduling (hot: validation and push inlined, no at() hop) -----

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        if not (delay >= 0):  # rejects negatives and NaN
            raise SimulationError(f"negative delay: {delay!r}")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args, self)
        entry = (time, priority, seq, ev)
        # Within a rung cur[-1] never changes (insort only ever places
        # entries *before* it), so every _top entry orders after it and
        # routing on cur[-1] alone preserves the rung invariant.
        cur = self._cur
        if cur and entry < cur[-1]:
            insort(cur, entry, lo=self._pos)
        else:
            self._top.append(entry)
        return ev

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        if not (time >= self._now):  # rejects past times and NaN
            raise SimulationError(
                f"cannot schedule in the past: t={time!r} < now={self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args, self)
        entry = (time, priority, seq, ev)
        cur = self._cur
        if cur and entry < cur[-1]:
            insort(cur, entry, lo=self._pos)
        else:
            self._top.append(entry)
        return ev

    # -- cancellation accounting ---------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap > _COMPACT_MIN
            and self._cancelled_in_heap * 2
                > len(self._cur) - self._pos + len(self._top)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from both rungs, in place.

        Only the unread tail of ``_cur`` is filtered: the consumed
        prefix stays, so the run loops' local read index remains
        valid, and both list objects keep their identity for any
        local aliases held across event execution (the calendar
        analogue of the heap engine's in-place ``_compact`` fix).
        """
        cur, pos = self._cur, self._pos
        cur[pos:] = [e for e in cur[pos:] if not e[3]._cancelled]
        self._top[:] = [e for e in self._top if not e[3]._cancelled]
        self._cancelled_in_heap = 0

    # -- execution ------------------------------------------------------

    def _refill(self) -> int:
        """Discard the consumed rung, promote the future rung (sorted).

        Mutates ``_cur``/``_top`` in place (slice assignment) so local
        aliases held by a caller stay attached.  Returns the number of
        unread entries afterwards.
        """
        cur, top = self._cur, self._top
        del cur[:]
        self._pos = 0
        if top:
            top.sort()
            cur[:] = top
            del top[:]
        return len(cur)

    def next_event_time(self) -> float:
        """Time of the next *live* event, or ``inf`` when drained.

        Cancelled entries at the front are consumed, so the answer
        reflects :attr:`pending_active` — same contract as the heap
        engine; used by the parallel engine's window negotiation.
        """
        cur = self._cur
        pos = self._pos
        n = len(cur)
        while True:
            if pos >= n:
                self._pos = pos
                n = self._refill()
                pos = 0
                if n == 0:
                    return float("inf")
            entry = cur[pos]
            ev = entry[3]
            if ev._cancelled:
                pos += 1
                self._pos = pos
                ev._popped = True
                self._cancelled_in_heap -= 1
                continue
            return entry[0]

    def run_before(self, bound: float) -> None:
        """Fire every event with ``time < bound``, *strictly*.

        Same contract as the heap engine: no events at exactly
        ``bound``, no clock advance when the queue drains early.
        """
        if self._running:
            raise SimulationError("Simulator.run_before() is not reentrant")
        self._running = True
        fired = 0
        cur = self._cur
        pos = self._pos
        n = len(cur)
        trim = _TRIM_POS
        top = self._top
        try:
            while True:
                if pos >= n:
                    if not top:
                        del cur[:]
                        self._pos = pos = 0
                        return
                    top.sort()
                    cur = self._cur = top
                    top = self._top = []
                    self._pos = pos = 0
                    n = len(cur)
                elif pos >= trim:
                    del cur[:pos]
                    self._pos = pos = 0
                    n = len(cur)
                entry = cur[pos]
                ev = entry[3]
                if ev._cancelled:
                    pos += 1
                    ev._popped = True
                    self._cancelled_in_heap -= 1
                    continue
                if entry[0] >= bound:
                    return
                pos += 1
                self._pos = pos
                ev._popped = True
                self._now = entry[0]
                fired += 1
                ev.fn(*ev.args)
                # A callback may have insorted into (or compacted) the
                # current rung: re-read its bounds, never cache across.
                pos = self._pos
                n = len(cur)
        finally:
            self._pos = pos
            self._events_processed += fired
            self._running = False

    def step(self) -> bool:
        """Fire the single next event.  Returns False when drained."""
        cur = self._cur
        pos = self._pos
        n = len(cur)
        while True:
            if pos >= n:
                self._pos = pos
                n = self._refill()
                pos = 0
                if n == 0:
                    return False
            entry = cur[pos]
            pos += 1
            self._pos = pos
            ev = entry[3]
            ev._popped = True
            if ev._cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._now = entry[0]
            self._events_processed += 1
            ev.fn(*ev.args)
            return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until drained, ``until`` is reached, or ``max_events``.

        Contract identical to the heap engine (events at exactly
        ``until`` fire; the clock advances to ``until`` when the queue
        drains early).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        fired = 0
        cur = self._cur
        pos = self._pos
        trim = _TRIM_POS
        try:
            if until is None and max_events is None:
                # Fast path: the common run-to-completion case.  The
                # refill is inlined (it runs every couple of events in
                # chain-shaped workloads); rebinding _cur/_top and the
                # local aliases in the same step keeps every pointer a
                # callback can observe consistent.
                n = len(cur)
                top = self._top
                while True:
                    if pos >= n:
                        if not top:
                            del cur[:]
                            self._pos = pos = 0
                            return
                        top.sort()
                        cur = self._cur = top
                        top = self._top = []
                        self._pos = pos = 0
                        n = len(cur)
                    elif pos >= trim:
                        del cur[:pos]
                        self._pos = pos = 0
                        n = len(cur)
                    entry = cur[pos]
                    pos += 1
                    ev = entry[3]
                    if ev._cancelled:
                        ev._popped = True
                        self._cancelled_in_heap -= 1
                        continue
                    self._pos = pos
                    ev._popped = True
                    self._now = entry[0]
                    fired += 1
                    ev.fn(*ev.args)
                    pos = self._pos
                    n = len(cur)
            else:
                n = len(cur)
                while True:
                    if pos >= n:
                        self._pos = pos
                        n = self._refill()
                        pos = 0
                        if n == 0:
                            break
                    elif pos >= trim:
                        del cur[:pos]
                        self._pos = pos = 0
                        n = len(cur)
                    if max_events is not None and fired >= max_events:
                        return
                    entry = cur[pos]
                    ev = entry[3]
                    if ev._cancelled:
                        pos += 1
                        ev._popped = True
                        self._cancelled_in_heap -= 1
                        continue
                    if until is not None and entry[0] > until:
                        self._now = until
                        return
                    pos += 1
                    self._pos = pos
                    ev._popped = True
                    self._now = entry[0]
                    fired += 1
                    ev.fn(*ev.args)
                    pos = self._pos
                    n = len(cur)
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._pos = pos
            self._events_processed += fired
            self._running = False


# ---------------------------------------------------------------------------
# Compiled core wrapper
# ---------------------------------------------------------------------------


if _ceventq is not None:

    class CompiledSimulator(_ceventq.CalendarSimCore):
        """The native calendar core plus the cold-path Python helpers."""

        eventq_name = "calendar-c"

        def drain(self, max_events: int = 50_000_000) -> None:
            """Run to completion, guarding against runaway event loops."""
            self.run(max_events=max_events)
            if self.pending_active:
                raise SimulationError(
                    f"simulation did not converge within {max_events} events"
                )

else:  # pragma: no cover - depends on the build

    CompiledSimulator = None  # type: ignore[assignment,misc]


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def simulator_class(eventq: Optional[str] = None) -> type:
    """The simulator class an ``eventq`` choice runs on.

    Takes an explicit ``eventq=``, else the run configuration's.
    ``auto`` (the default) is decided by the build: the compiled core
    when it is built, else the reference heap.  Requesting
    ``compiled`` explicitly when the extension is absent raises
    :class:`SimulationError`; the entry points call this at start-up
    so such a run fails before it begins.
    """
    name = (current() if eventq is None else RunConfig(eventq=eventq)).eventq
    if name == "heap":
        return Simulator
    if name == "calendar":
        return CalendarSimulator
    if _ceventq is not None:
        return CompiledSimulator
    if name == "compiled":
        raise SimulationError(
            "eventq=compiled but repro.sim._ceventq is not "
            "built; install with `pip install -e .[compiled]` or run "
            "`python setup.py build_ext --inplace`"
        )
    return Simulator


def make_simulator(eventq: Optional[str] = None) -> Simulator:
    """Build a simulator on :func:`simulator_class`'s implementation."""
    return simulator_class(eventq)()
