"""Base class for simulation entities.

An entity is anything that lives inside a :class:`~repro.sim.engine.Simulator`
and schedules events: NICs, processing elements, MPI ranks.  The base
class only provides the common plumbing (a back reference to the
simulator and convenience scheduling helpers), keeping subclasses free
of boilerplate.
"""

from __future__ import annotations

from typing import Any, Callable

from .engine import Simulator
from .event import Event


class Entity:
    """Something that exists in simulated time."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or type(self).__name__

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        return self.sim.schedule(delay, fn, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
