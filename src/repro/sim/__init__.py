"""Discrete-event simulation core.

Public surface:

* :class:`Simulator` — the event loop and clock (heap reference).
  Scheduling is one-way: ``at``/``schedule`` queue
  ``(time, priority, seq, fn, args)`` and return nothing.  ``run()``
  runs to empty and ``run_before(bound)`` runs one window of a sharded
  run; neither takes another bound.
* :func:`make_simulator` — build on the selected event-queue
  implementation (``--eventq``; see :mod:`repro.sim.eventq`).
* :class:`Entity` — base class for things living in simulated time.
* :class:`Trace`, :class:`RunningStats` — counters and running
  statistics.
* :mod:`repro.sim.rng` — deterministic random streams.
"""

from .engine import SimulationError, Simulator
from .entity import Entity
from .eventq import (
    CalendarSimulator,
    compiled_available,
    eventq_name,
    make_simulator,
)
from .rng import substream
from .trace import RunningStats, Trace

__all__ = [
    "Simulator",
    "SimulationError",
    "Entity",
    "Trace",
    "RunningStats",
    "substream",
    "make_simulator",
    "eventq_name",
    "compiled_available",
    "CalendarSimulator",
]
