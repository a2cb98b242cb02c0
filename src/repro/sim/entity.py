"""Base class for simulation entities.

An entity is anything that lives inside a :class:`~repro.sim.engine.Simulator`
and schedules events: NICs, processing elements, MPI ranks.  The base
class only provides the common plumbing (a back reference to the
simulator and its clock), keeping subclasses free of boilerplate.
"""

from __future__ import annotations

from .engine import Simulator


class Entity:
    """Something that exists in simulated time."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or type(self).__name__

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
