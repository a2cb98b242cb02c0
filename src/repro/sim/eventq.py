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
* :class:`AutoSimulator` — starts on the reference heap and commits to
  an implementation at the first ``run()``-family call: workloads with
  a large pending set amortize the ladder's refill sorts, tiny ones
  (interactive pingpong points) keep the heap's lower constant.

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
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..config import RunConfig, current
from .engine import _COMPACT_MIN, SimulationError, Simulator
from .event import Event

try:  # the optional compiled core (see setup.py / _ceventq.c)
    from . import _ceventq
except ImportError:  # pragma: no cover - depends on the build
    _ceventq = None

#: ``auto``: pending_active at the first run()-family call at or above
#: this commits to the calendar queue; below it, to the heap.
_AUTO_PENDING = 256

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
        **kwargs: Any,
    ) -> Event:
        if not (delay >= 0):  # rejects negatives and NaN
            raise SimulationError(f"negative delay: {delay!r}")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args, kwargs, self)
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
        **kwargs: Any,
    ) -> Event:
        if not (time >= self._now):  # rejects past times and NaN
            raise SimulationError(
                f"cannot schedule in the past: t={time!r} < now={self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args, kwargs, self)
        entry = (time, priority, seq, ev)
        cur = self._cur
        if cur and entry < cur[-1]:
            insort(cur, entry, lo=self._pos)
        else:
            self._top.append(entry)
        return ev

    def schedule_batch(
        self,
        entries: Iterable[Tuple[float, Callable[..., Any], tuple]],
        priority: int = 0,
    ) -> List[Event]:
        """Admit a burst of ``(time, fn, args)`` callbacks in one call.

        Rejection is atomic exactly as in the heap engine: a past or
        NaN time raises before either rung or the sequence counter is
        touched.
        """
        now = self._now
        seq = self._seq
        events: List[Event] = []
        batch: List[Tuple[float, int, int, Event]] = []
        for time, fn, args in entries:
            if not (time >= now):  # rejects past times and NaN
                raise SimulationError(
                    f"cannot schedule in the past: t={time!r} < now={now!r}"
                )
            ev = Event(time, priority, seq, fn, args, None, self)
            batch.append((time, priority, seq, ev))
            events.append(ev)
            seq += 1
        self._seq = seq
        cur = self._cur
        if cur:
            last = cur[-1]
            top_append = self._top.append
            pos = self._pos
            for entry in batch:
                if entry < last:
                    insort(cur, entry, lo=pos)
                else:
                    top_append(entry)
        else:
            self._top.extend(batch)
        return events

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
                kw = ev.kwargs
                if kw is None:
                    ev.fn(*ev.args)
                else:
                    ev.fn(*ev.args, **kw)
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
            if ev.kwargs is None:
                ev.fn(*ev.args)
            else:
                ev.fn(*ev.args, **ev.kwargs)
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
                    kw = ev.kwargs
                    if kw is None:
                        ev.fn(*ev.args)
                    else:
                        ev.fn(*ev.args, **kw)
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
                    if ev.kwargs is None:
                        ev.fn(*ev.args)
                    else:
                        ev.fn(*ev.args, **ev.kwargs)
                    pos = self._pos
                    n = len(cur)
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._pos = pos
            self._events_processed += fired
            self._running = False


# ---------------------------------------------------------------------------
# Auto mode
# ---------------------------------------------------------------------------


class AutoSimulator(Simulator):
    """Heap-backed until the first run()-family call, then committed.

    The commit point inspects the workload the runtime actually built:
    a pending set of :data:`_AUTO_PENDING` or more live events means
    refill sorts amortize and the calendar queue wins; anything
    smaller keeps the reference heap's lower constant.  The decision
    is sticky (the instance *becomes* the chosen class), costs one
    ``sort`` of the already-heaped entries when the calendar is
    picked, and cannot affect results — both targets pop the same
    ``(time, priority, seq)`` order.
    """

    eventq_name = "auto"

    def _commit(self) -> None:
        if self.pending_active >= _AUTO_PENDING:
            entries = self._heap
            entries.sort()
            self.__class__ = CalendarSimulator
            del self._heap
            self._cur = entries
            self._pos = 0
            self._top = []
        else:
            self.__class__ = Simulator

    def run(self, until=None, max_events=None) -> None:
        self._commit()
        return self.run(until=until, max_events=max_events)

    def run_before(self, bound: float) -> None:
        self._commit()
        return self.run_before(bound)

    def step(self) -> bool:
        self._commit()
        return self.step()

    def next_event_time(self) -> float:
        self._commit()
        return self.next_event_time()


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
# State save / restore (the Time Warp engine's rollback hooks)
# ---------------------------------------------------------------------------


def checkpoint_sim(sim: Any) -> tuple:
    """Snapshot a simulator's complete pending state.

    The snapshot holds *references* to the pending :class:`Event`
    objects (their closures keep pointing at the live runtime — the
    optimistic engine restores application state in place, so those
    references stay valid) plus a copy of each event's cancelled flag,
    the clock, the scheduling sequence counter and the processed-event
    count.  Restoring and re-running therefore replays the exact
    ``(time, priority, seq)`` pop order of the original execution.

    Works on every ``--eventq`` implementation, including an
    :class:`AutoSimulator` that commits to a different class between
    checkpoint and restore (the snapshot pins ``__class__``).
    Checkpoints must be taken outside ``run()`` (between events).
    """
    cls = sim.__class__
    if _ceventq is not None and isinstance(sim, _ceventq.CalendarSimCore):
        # (now, seq, events_processed, [(event, cancelled), ...])
        return ("c",) + sim.checkpoint()
    if cls is CalendarSimulator:
        entries = sim._cur[sim._pos:] + sim._top
    else:  # Simulator / AutoSimulator: the heap list is the whole queue
        entries = list(sim._heap)
    flags = [e[3]._cancelled for e in entries]
    return (cls, sim._now, sim._seq, sim._events_processed, entries, flags)


def restore_sim(sim: Any, snap: tuple) -> None:
    """Restore ``sim`` to a :func:`checkpoint_sim` snapshot in place."""
    if snap[0] == "c":
        _, now, seq, done, entries = snap
        sim.restore(now, seq, done, entries)
        return
    cls, now, seq, done, entries, flags = snap
    for (_, _, _, ev), flag in zip(entries, flags):
        ev._cancelled = flag
        ev._popped = False
    sim.__class__ = cls
    sim._now = now
    sim._seq = seq
    sim._events_processed = done
    sim._running = False
    sim._cancelled_in_heap = sum(flags)
    if cls is CalendarSimulator:
        if hasattr(sim, "_heap"):
            del sim._heap
        # One fully sorted rung is a legal calendar state (the rung
        # invariant only needs _cur sorted with _pos at its head).
        sim._cur = sorted(entries)
        sim._pos = 0
        sim._top = []
    else:
        for name in ("_cur", "_pos", "_top"):
            if hasattr(sim, name):
                delattr(sim, name)
        # A copy of a heap list is still a valid heap.
        sim._heap = list(entries)


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def make_simulator(eventq: Optional[str] = None) -> Simulator:
    """Build a simulator on the resolved event-queue implementation.

    ``auto`` (the default) takes the compiled core whenever it is
    built — it dominates both pure-Python structures — and otherwise
    defers the heap-vs-calendar choice to the workload via
    :class:`AutoSimulator`.  Requesting ``compiled`` explicitly when
    the extension is absent is an error (CI relies on this to catch a
    silently-skipped build); ``auto`` falls back silently.
    """
    name = (current() if eventq is None else RunConfig(eventq=eventq)).eventq
    if name == "heap":
        return Simulator()
    if name == "calendar":
        return CalendarSimulator()
    if name == "compiled":
        if _ceventq is None:
            raise SimulationError(
                "eventq=compiled but repro.sim._ceventq is not "
                "built; install with `pip install -e .[compiled]` or run "
                "`python setup.py build_ext --inplace`"
            )
        return CompiledSimulator()
    # auto
    if _ceventq is not None:
        return CompiledSimulator()
    return AutoSimulator()
