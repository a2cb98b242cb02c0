"""Event primitives for the discrete-event simulation core.

An :class:`Event` is a scheduled callback.  Events are ordered by
``(time, priority, seq)`` where ``seq`` is a monotonically increasing
sequence number assigned by the :class:`~repro.sim.engine.Simulator`.
Breaking time ties by sequence number makes every simulation run fully
deterministic: two events scheduled for the same instant always fire in
the order they were scheduled.

Hot-path note
-------------
The simulator's heap stores plain ``(time, priority, seq, event)``
tuples, not the events themselves, so heap sift comparisons run as
C-level tuple comparisons instead of dispatching :meth:`Event.__lt__`
per probe.  ``seq`` is unique, so two heap entries never compare equal
through the first three fields and the trailing ``Event`` is never
compared.  :meth:`__lt__` is kept for direct ``Event`` comparisons in
user/test code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator


class Event:
    """A pending callback in simulated time.

    Users normally do not construct events directly; they receive them
    from :meth:`Simulator.schedule` / :meth:`Simulator.at` and may hold
    on to them only to :meth:`cancel` them.

    Attributes
    ----------
    time:
        Absolute simulated time (seconds) at which the event fires.
    priority:
        Secondary ordering key.  Lower priorities fire first among
        events scheduled for the same instant.  The runtime uses this
        sparingly (e.g. to ensure data delivery precedes notification).
    seq:
        Tie-breaking sequence number; assigned by the simulator.
    """

    __slots__ = (
        "time", "priority", "seq", "fn", "args",
        "_cancelled", "_popped", "_sim",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False
        self._popped = False  # True once removed from the heap
        self._sim = sim

    # Ordering ---------------------------------------------------------

    def sort_key(self) -> tuple:
        """The (time, priority, seq) ordering tuple."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    # Lifecycle --------------------------------------------------------

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped from the heap.

        Cancelling an already-fired event is a harmless no-op.  The
        owning simulator is notified so it can keep an exact count of
        cancelled-but-still-heaped events (for ``pending_active`` and
        lazy heap compaction).
        """
        if self._cancelled:
            return
        self._cancelled = True
        if not self._popped and self._sim is not None:
            self._sim._note_cancel()

    @property
    def cancelled(self) -> bool:
        """True once cancel() was called."""
        return self._cancelled

    def fire(self) -> None:
        """Invoke the callback unless cancelled."""
        if not self._cancelled:
            self.fn(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        flag = " CANCELLED" if self._cancelled else ""
        return f"<Event t={self.time:.9f} prio={self.priority} seq={self.seq} {name}{flag}>"
