"""The event log and the tracer installation protocol.

An :class:`EventLog` collects :class:`~repro.projections.events.TraceEvent`
records from the instrumentation hooks threaded through the runtime,
the scheduler, the CkDirect layer, and the fabrics.

Cost discipline
---------------
Tracing is **off by default** and the hooks are written so a disabled
run pays one attribute load and one ``is None`` branch per hook — no
allocation, no call.  Every hook follows the pattern::

    tr = self.rt.tracer          # None when tracing is off
    if tr is not None:
        tr.span(...)

The per-run wall-clock overhead of a disabled run is therefore
indistinguishable from the pre-instrumentation build (asserted by
``tests/projections/test_overhead.py``).

Installation
------------
Components discover the tracer one way: ambiently.
:func:`install_tracer` (or the :func:`tracing` block around it) sets a
module-global that every ``Runtime`` / ``MPIWorld`` constructed
afterwards picks up.  This is how ``--trace-out`` traces multi-run
artifacts (tables, sweeps) without threading a parameter through every
bench runner, and how a sweep worker records into its own log; each
constructed runtime registers its own *run* (one Chrome-trace process)
via :meth:`EventLog.new_run`.

Causality context
-----------------
While a handler executes on a PE, the hook that wraps it pushes the
handler's (pre-allocated) event id onto the log's context stack; sends
and puts issued inside read :attr:`EventLog.current` as their cause.
The stack nests correctly because handler invocation is synchronous.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from .events import KIND_INSTANT, KIND_SPAN, TraceEvent


class EventLog:
    """An append-only, causally-linked timeline event log."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        #: one entry per registered run: (label, owner, n_pes).
        self.runs: List[Tuple[str, Any, int]] = []
        self._next_eid = 0
        self._ctx: List[int] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def new_run(self, label: str, owner: Any = None, n_pes: int = 0) -> int:
        """Register a runtime instance; returns its run id (trace pid).

        ``owner`` keeps a reference to the runtime so analyses can
        reconcile timeline events against its aggregate ``Trace``
        counters; ``n_pes`` sizes the per-PE track metadata.
        """
        self.runs.append((label, owner, n_pes))
        return len(self.runs) - 1

    # ------------------------------------------------------------------
    # Causality context
    # ------------------------------------------------------------------

    def next_id(self) -> int:
        """Allocate an event id ahead of recording (for wrapping spans
        whose end time is only known after the handler returns)."""
        eid = self._next_eid
        self._next_eid += 1
        return eid

    def push(self, eid: int) -> None:
        """Enter a handler context: subsequent sends are caused by ``eid``."""
        self._ctx.append(eid)

    def pop(self) -> None:
        """Leave the innermost handler context."""
        self._ctx.pop()

    @property
    def current(self) -> Optional[int]:
        """The innermost executing handler's event id (None at top level)."""
        return self._ctx[-1] if self._ctx else None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(
        self,
        run: int,
        pe: int,
        category: str,
        name: str,
        t0: float,
        t1: float,
        cause: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
        eid: Optional[int] = None,
    ) -> int:
        """Append a complete interval event; returns its id."""
        if eid is None:
            eid = self.next_id()
        self.events.append(
            TraceEvent(eid, KIND_SPAN, run, pe, category, name, t0, t1, cause, args)
        )
        return eid

    def instant(
        self,
        run: int,
        pe: int,
        category: str,
        name: str,
        t: float,
        cause: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Append a point event; returns its id."""
        eid = self.next_id()
        self.events.append(
            TraceEvent(eid, KIND_INSTANT, run, pe, category, name, t, t, cause, args)
        )
        return eid

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def by_eid(self) -> Dict[int, TraceEvent]:
        """An eid → event index (events hold unique ids)."""
        return {ev.eid: ev for ev in self.events}

    def clear(self) -> None:
        """Drop all recorded events (registrations are kept)."""
        self.events.clear()
        self._ctx.clear()


# ---------------------------------------------------------------------------
# Ambient installation (used by the CLI's --trace-out / profile paths)
# ---------------------------------------------------------------------------

_active: Optional[EventLog] = None


def install_tracer(log: EventLog) -> EventLog:
    """Make ``log`` the ambient tracer new runtimes attach to."""
    global _active
    _active = log
    return log


def uninstall_tracer() -> None:
    """Clear the ambient tracer (new runtimes run untraced)."""
    global _active
    _active = None


def current_tracer() -> Optional[EventLog]:
    """The ambient tracer, or None when tracing is off."""
    return _active


@contextmanager
def tracing(log: Optional[EventLog] = None):
    """Context manager: install a tracer for the duration of a block.

    >>> from repro.projections import tracing
    >>> with tracing() as log:      # doctest: +SKIP
    ...     run_openatom(ABE, 16, mode="ckd")
    ... write_chrome_trace(log, "openatom.trace.json")
    """
    log = log if log is not None else EventLog()
    prev = _active
    install_tracer(log)
    try:
        yield log
    finally:
        if prev is None:
            uninstall_tracer()
        else:
            install_tracer(prev)
