"""Discrete-event simulation core.

Public surface:

* :class:`Simulator` — the event loop and clock (heap reference).
  Scheduling is one-way: ``at``/``schedule`` queue
  ``(time, priority, seq, fn, args)`` and return nothing.
* :func:`make_simulator` — build on the selected event-queue
  implementation (``--eventq``; see :mod:`repro.sim.eventq`).
* :class:`Entity` — base class for things living in simulated time.
* :class:`Trace`, :class:`RunningStats` — statistics collection.
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
from .rng import DEFAULT_SEED, make_rng, split_seeds, substream
from .trace import RunningStats, Sample, Trace

__all__ = [
    "Simulator",
    "SimulationError",
    "Entity",
    "Trace",
    "RunningStats",
    "Sample",
    "make_rng",
    "substream",
    "split_seeds",
    "DEFAULT_SEED",
    "make_simulator",
    "eventq_name",
    "compiled_available",
    "CalendarSimulator",
]
