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
from .engine import SimulationError, Simulator

try:  # the optional compiled core (see setup.py / _ceventq.c)
    from . import _ceventq
except ImportError:  # pragma: no cover - depends on the build
    _ceventq = None

#: Drop the consumed current-rung prefix once the read pointer passes
#: this, so a rung that never fully drains (self-rescheduling chains
#: insort ahead of the pointer) cannot grow without bound.
_TRIM_POS = 4096

#: One queued event: ``(time, priority, seq, fn, args)``.
_Entry = Tuple[float, int, int, Callable[..., Any], tuple]


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
        The current rung: ``(time, priority, seq, fn, args)`` tuples
        in ascending order from index ``_pos`` on.  Entries before
        ``_pos`` are consumed and periodically trimmed.
    ``_top``
        The future rung: unsorted entries, each ordering at or after
        ``_cur``'s last entry.  Sorted wholesale (C Timsort) when the
        current rung drains.

    Invariant: every ``_top`` entry orders >= every *unread* ``_cur``
    entry, so draining ``_cur`` then sorting ``_top`` pops the global
    ``(time, priority, seq)`` order — bit-identical to the heap.

    The run loops hold local aliases to ``_cur`` and re-read its
    length and ``_pos`` after every callback, because a callback may
    insort into the current rung.
    """

    eventq_name = "calendar"

    def __init__(self) -> None:
        super().__init__()
        del self._heap  # misuse of the base storage should fail loudly
        self._cur: List[_Entry] = []
        self._pos: int = 0
        self._top: List[_Entry] = []

    # -- introspection --------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of queued events."""
        return len(self._cur) - self._pos + len(self._top)

    # -- scheduling (hot: validation and push inlined, no at() hop) -----

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        if not (delay >= 0):  # rejects negatives and NaN
            raise SimulationError(f"negative delay: {delay!r}")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        entry = (time, priority, seq, fn, args)
        # Within a rung cur[-1] never changes (insort only ever places
        # entries *before* it), so every _top entry orders after it and
        # routing on cur[-1] alone preserves the rung invariant.
        cur = self._cur
        if cur and entry < cur[-1]:
            insort(cur, entry, lo=self._pos)
        else:
            self._top.append(entry)

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        if not (time >= self._now):  # rejects past times and NaN
            raise SimulationError(
                f"cannot schedule in the past: t={time!r} < now={self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (time, priority, seq, fn, args)
        cur = self._cur
        if cur and entry < cur[-1]:
            insort(cur, entry, lo=self._pos)
        else:
            self._top.append(entry)

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
        """Time of the next event, or ``inf`` when drained."""
        if self._pos >= len(self._cur) and self._refill() == 0:
            return float("inf")
        return self._cur[self._pos][0]

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
                time, _, _, fn, args = cur[pos]
                if time >= bound:
                    return
                pos += 1
                self._pos = pos
                self._now = time
                fired += 1
                fn(*args)
                # A callback may have insorted into the current rung:
                # re-read its bounds, never cache across.
                pos = self._pos
                n = len(cur)
        finally:
            self._pos = pos
            self._events_processed += fired
            self._running = False

    def run(self) -> None:
        """Run until drained; the heap engine's contract.

        The refill is inlined (it runs every couple of events in
        chain-shaped workloads); rebinding ``_cur``/``_top`` and the
        local aliases in the same step keeps every pointer a callback
        can observe consistent.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
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
                time, _, _, fn, args = cur[pos]
                pos += 1
                self._pos = pos
                self._now = time
                fired += 1
                fn(*args)
                pos = self._pos
                n = len(cur)
        finally:
            self._pos = pos
            self._events_processed += fired
            self._running = False


# ---------------------------------------------------------------------------
# Compiled core wrapper
# ---------------------------------------------------------------------------


if _ceventq is not None:

    class CompiledSimulator(_ceventq.CalendarSimCore):
        """The native calendar core, named for ``repro profile``."""

        eventq_name = "calendar-c"

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
