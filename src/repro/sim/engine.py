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
* Events are ordered by ``(time, priority, seq)``, where ``seq`` is a
  per-simulator counter: two events scheduled for the same instant at
  equal priority fire in the order they were scheduled, so a run is a
  pure function of its inputs and seed.
* The engine is deliberately minimal: no processes/coroutines, just
  callbacks.  The message-driven programming model of Charm++ maps
  naturally onto callbacks, so a process abstraction would only add
  overhead and non-determinism risk.
* Scheduling is one-way.  :meth:`at` and :meth:`schedule` queue a
  callback and return nothing, so a queued event always fires.  A
  callback that may turn out to be unwanted (a retransmit timer whose
  put was acknowledged) checks its own state when it fires and returns
  at once.

Hot-path structure
------------------
A figure sweep fires tens of millions of events, so the constant cost
per event is first-order for wall-clock time (see
``benchmarks/test_engine_micro.py``):

* heap entries are plain ``(time, priority, seq, fn, args)`` tuples —
  no per-event object, and sift comparisons are C tuple comparisons
  (``seq`` is unique, so the callback is never compared);
* :meth:`run` and :meth:`run_before` bind the heap and ``heappop``
  to locals;
* callbacks take positional arguments only, so every loop fires
  ``fn(*args)`` with no keyword unpacking.

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
from typing import Any, Callable, List, Tuple


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


class Simulator:
    """A deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(1e-6, fired.append, "a")
    >>> sim.schedule(0.5e-6, fired.append, "b")
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
        # Heap of (time, priority, seq, fn, args) tuples; see module doc.
        self._heap: List[Tuple[float, int, int, Callable[..., Any], tuple]] = []
        self._seq: int = 0
        self._running: bool = False
        self._events_processed: int = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired since construction."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay fires after all
        events already scheduled for the current instant at equal
        priority (FIFO among ties).
        """
        if not (delay >= 0):  # rejects negatives and NaN
            raise SimulationError(f"negative delay: {delay!r}")
        self.at(self._now + delay, fn, *args, priority=priority)

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if not (time >= self._now):  # rejects past times and NaN
            raise SimulationError(
                f"cannot schedule in the past: t={time!r} < now={self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, fn, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def next_event_time(self) -> float:
        """Time of the next event, or ``inf`` with an empty heap.

        Used by the parallel engine's conservative window negotiation.
        """
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def run_before(self, bound: float) -> None:
        """Fire every event with ``time < bound``, *strictly*.

        This is one conservative window: it neither fires events at
        exactly ``bound`` nor advances the clock to ``bound`` when the
        heap drains early, because the parallel engine runs a shard
        window by window and a later window may admit events between
        ``now`` and the previous bound.
        """
        if self._running:
            raise SimulationError("Simulator.run_before() is not reentrant")
        self._running = True
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and heap[0][0] < bound:
                time, _, _, fn, args = pop(heap)
                self._now = time
                fired += 1
                fn(*args)
        finally:
            self._events_processed += fired
            self._running = False

    def run(self) -> None:
        """Run until the heap drains.

        A message-driven program ends by falling silent, so a run takes
        no other bound; :meth:`run_before` runs one window of a sharded
        run.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                time, _, _, fn, args = pop(heap)
                self._now = time
                fired += 1
                fn(*args)
        finally:
            self._events_processed += fired
            self._running = False
