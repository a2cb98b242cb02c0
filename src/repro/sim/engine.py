"""The discrete-event simulation engine.

The :class:`Simulator` owns simulated time.  Every other component of
this package — network models, processing elements, the Charm++-like
runtime, the simulated MPI — advances time exclusively by scheduling
events here.

Design notes
------------
* Time is a ``float`` in **seconds**.  The helpers in
  :mod:`repro.util.units` (``us``, ``ms``, ``KB`` …) keep call sites
  readable.
* The event heap breaks ties deterministically (see
  :mod:`repro.sim.event`), so a run is a pure function of its inputs
  and seed.
* The engine is deliberately minimal: no processes/coroutines, just
  callbacks.  The message-driven programming model of Charm++ maps
  naturally onto callbacks, so a process abstraction would only add
  overhead and non-determinism risk.

Hot-path structure
------------------
A figure sweep fires tens of millions of events, so the constant cost
per event is first-order for wall-clock time (see
``benchmarks/test_engine_micro.py``):

* heap entries are plain ``(time, priority, seq, event)`` tuples —
  sift comparisons are C tuple comparisons, never
  :meth:`Event.__lt__` dispatch (``seq`` is unique, so the trailing
  event object is never compared);
* :meth:`run` binds the heap and ``heappop`` to locals and has a
  dedicated no-``until``/no-``max_events`` loop (the common case);
* callbacks take positional arguments only, so every loop fires
  ``ev.fn(*ev.args)`` with no keyword unpacking;
* cancelled events are counted exactly (:attr:`pending_active`) and
  compacted *lazily*: the heap is rebuilt only when cancelled entries
  dominate it, so workloads that rarely cancel never pay for it.

:meth:`at` and :meth:`schedule` are the only ways an event enters the
queue.

This class is also the *reference implementation* of the pluggable
event-queue layer: :mod:`repro.sim.eventq` provides a calendar-queue
variant and an optional compiled core that must match this engine's
pop order bit-for-bit.  Construct through
:func:`repro.sim.eventq.make_simulator` to honor the configured queue.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from .event import Event

#: Lazy-compaction trigger: rebuild the heap when more than this many
#: cancelled events are heaped *and* they outnumber live entries.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


class Simulator:
    """A deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1e-6, fired.append, "a")
    >>> _ = sim.schedule(0.5e-6, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1e-06
    """

    #: Event-queue implementation name, reported by ``repro profile``
    #: and the serve layer's ``/metrics`` (see :mod:`repro.sim.eventq`).
    eventq_name = "heap"

    def __init__(self) -> None:
        self._now: float = 0.0
        # Heap of (time, priority, seq, Event) tuples; see module doc.
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq: int = 0
        self._running: bool = False
        self._events_processed: int = 0
        self._cancelled_in_heap: int = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired since construction (cancelled excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still on the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def pending_active(self) -> int:
        """Number of *live* (non-cancelled) events still on the heap."""
        return len(self._heap) - self._cancelled_in_heap

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay fires after all
        events already scheduled for the current instant at equal
        priority (FIFO among ties).
        """
        if not (delay >= 0):  # rejects negatives and NaN
            raise SimulationError(f"negative delay: {delay!r}")
        return self.at(self._now + delay, fn, *args, priority=priority)

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if not (time >= self._now):  # rejects past times and NaN
            raise SimulationError(
                f"cannot schedule in the past: t={time!r} < now={self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args, self)
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # Cancellation accounting
    # ------------------------------------------------------------------

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` while the event is heaped."""
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap > _COMPACT_MIN
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap (O(n)).

        Dropped events are already ``_cancelled``, so a late
        ``cancel()`` on one of them stays a no-op — no flag updates
        are needed on the removed entries.

        The heap list is compacted *in place*: :meth:`run`,
        :meth:`run_before` and :meth:`step` hold local aliases to it
        across event execution, and cancellation (hence compaction)
        can happen inside an event callback.  Rebinding ``self._heap``
        here would strand those aliases on the stale list and the run
        loop would return with pending events.
        """
        live = [entry for entry in self._heap if not entry[3]._cancelled]
        heapq.heapify(live)
        self._heap[:] = live
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def next_event_time(self) -> float:
        """Time of the next *live* event, or ``inf`` with an empty heap.

        Cancelled entries sitting at the top are popped (they would be
        discarded by the next run loop anyway), so the answer reflects
        :attr:`pending_active`, not :attr:`pending`.  Used by the
        parallel engine's conservative window negotiation.
        """
        heap = self._heap
        while heap:
            ev = heap[0][3]
            if ev._cancelled:
                heapq.heappop(heap)
                ev._popped = True
                self._cancelled_in_heap -= 1
                continue
            return heap[0][0]
        return float("inf")

    def run_before(self, bound: float) -> None:
        """Fire every event with ``time < bound``, *strictly*.

        Unlike ``run(until=...)`` this neither fires events at exactly
        ``bound`` nor advances the clock to ``bound`` when the heap
        drains early: the parallel engine runs a shard window-by-window
        and a later window may admit events between ``now`` and the
        previous bound.
        """
        if self._running:
            raise SimulationError("Simulator.run_before() is not reentrant")
        self._running = True
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                entry = heap[0]
                ev = entry[3]
                if ev._cancelled:
                    pop(heap)
                    ev._popped = True
                    self._cancelled_in_heap -= 1
                    continue
                if entry[0] >= bound:
                    return
                pop(heap)
                ev._popped = True
                self._now = entry[0]
                fired += 1
                ev.fn(*ev.args)
        finally:
            self._events_processed += fired
            self._running = False

    def step(self) -> bool:
        """Fire the single next event.  Returns False if the heap is empty."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[3]
            ev._popped = True
            if ev._cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._now = ev.time
            self._events_processed += 1
            ev.fn(*ev.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute simulated time; events scheduled at
        exactly ``until`` still fire.  When the heap drains before
        ``until``, the clock is advanced to ``until``.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            if until is None and max_events is None:
                # Fast path: the common run-to-completion case.
                while heap:
                    time, _, _, ev = pop(heap)
                    ev._popped = True
                    if ev._cancelled:
                        self._cancelled_in_heap -= 1
                        continue
                    self._now = time
                    fired += 1
                    ev.fn(*ev.args)
                return
            while heap:
                if max_events is not None and fired >= max_events:
                    return
                entry = heap[0]
                ev = entry[3]
                if ev._cancelled:
                    pop(heap)
                    ev._popped = True
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and entry[0] > until:
                    self._now = until
                    return
                pop(heap)
                ev._popped = True
                self._now = entry[0]
                fired += 1
                ev.fn(*ev.args)
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._events_processed += fired
            self._running = False

    def drain(self, max_events: int = 50_000_000) -> None:
        """Run to completion, guarding against runaway event loops."""
        self.run(max_events=max_events)
        if self.pending_active:
            raise SimulationError(
                f"simulation did not converge within {max_events} events"
            )
