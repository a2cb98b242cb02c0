"""One run configuration for every wall-clock knob.

Seven knobs choose *how* a run executes — sweep workers, shard
processes, event queue, shard transport, hang deadline, sweep point
timeout — and which PE counts the figure sweeps cover (full scale).
Only ``shards`` can change the bytes of a simulated point: explicit
shard counts agree with each other, but the default serial path
reserves receiver NICs in send order rather than head-arrival order,
so on Infiniband it can differ from them.  Each resolves **flag >
environment > default**: a non-None explicit value wins, else a
non-empty ``REPRO_*`` variable, else the default.  Every value,
whatever its source, is validated by the same parser, and a bad one
raises :class:`ConfigError` with a one-line message naming the flag,
keyword or variable it came from.

Entry points (``repro``, ``repro serve``) resolve one
:class:`RunConfig` at start-up and :func:`install` it; library callers
(tests, scripts) get :func:`current`, resolved from the environment.
This is the only module that reads ``os.environ``.
"""

from __future__ import annotations

import argparse
import dataclasses
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, Mapping, Optional

EVENTQ_CHOICES = ("auto", "heap", "calendar", "compiled")
TRANSPORT_CHOICES = ("pipe", "shm")

#: Longest accepted wait, in seconds: poll(2) takes its timeout as a
#: C int of milliseconds (2**31 - 1 ms), and a shard deadline becomes
#: exactly such a poll on the pipe transport.
MAX_WAIT_S = 2_147_483.0

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class ConfigError(ValueError):
    """A malformed knob value; the message is one line naming it."""


def _count(raw: Any) -> int:
    try:
        val = int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        raise ValueError("must be a positive integer") from None
    if val < 1:
        raise ValueError("must be at least 1")
    return val


def _choice(choices: tuple) -> Callable[[Any], str]:
    def parse(raw: Any) -> str:
        val = str(raw).strip().lower()
        if val not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return val
    return parse


def _seconds(raw: Any) -> float:
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ValueError("must be a number of seconds") from None
    if not 0.0 < val <= MAX_WAIT_S:  # also rejects nan and inf
        raise ValueError(f"must be > 0 and at most {MAX_WAIT_S:.0f} seconds")
    return val


def _flag(raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    val = str(raw).strip().lower()
    if val in _TRUE or val in _FALSE:
        return val in _TRUE
    raise ValueError(f"must be one of {'/'.join(_TRUE)} or {'/'.join(_FALSE)}")


def count_arg(raw: str) -> int:
    """argparse ``type=`` for the count flags (``--jobs``, ``--shards``,
    ``--pes``, ``--size``, ``--iterations``)."""
    try:
        return _count(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {raw!r}") from None


def _knob(default: Any, env: str, parse: Callable[[Any], Any]):
    return field(default=default, metadata={"env": env, "parse": parse})


def _parse(f: dataclasses.Field, raw: Any, source: str) -> Any:
    try:
        return f.metadata["parse"](raw)
    except ValueError as exc:
        raise ConfigError(f"{source} {exc}, got {raw!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """The validated wall-clock knobs of one process (see README's
    "Run configuration" table for flags and accepted values)."""

    #: sweep worker processes; 1 runs points in-process.
    jobs: int = _knob(1, "REPRO_JOBS", _count)
    #: shard processes per run; None keeps the serial engine.
    shards: Optional[int] = _knob(None, "REPRO_SHARDS", _count)
    #: event-queue implementation (:func:`repro.sim.make_simulator`).
    eventq: str = _knob("auto", "REPRO_EVENTQ", _choice(EVENTQ_CHOICES))
    #: shard IPC transport.
    transport: str = _knob("pipe", "REPRO_TRANSPORT", _choice(TRANSPORT_CHOICES))
    #: seconds a shard may take to reach its next barrier before the
    #: supervisor counts it as hung.
    shard_deadline: float = _knob(120.0, "REPRO_SHARD_DEADLINE", _seconds)
    #: seconds one sweep point may run in a worker before it is killed.
    sweep_timeout: float = _knob(600.0, "REPRO_SWEEP_TIMEOUT", _seconds)
    #: run the paper's full PE ranges (slow) instead of the subsets.
    full_scale: bool = _knob(False, "REPRO_FULL_SCALE", _flag)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                object.__setattr__(self, f.name, _parse(f, value, f.name))

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None,
                 **explicit: Any) -> "RunConfig":
        """Resolve every field: non-None ``explicit`` keyword, else the
        field's non-empty environment variable, else the default."""
        environ = os.environ if environ is None else environ
        values = {k: v for k, v in explicit.items() if v is not None}
        for f in fields(cls):
            if f.name not in values:
                raw = environ.get(f.metadata["env"], "").strip()
                if raw:
                    values[f.name] = _parse(f, raw, f.metadata["env"])
        return cls(**values)

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with every non-None keyword applied and validated."""
        return dataclasses.replace(
            self, **{k: v for k, v in changes.items() if v is not None})


_installed: Optional[RunConfig] = None


def current() -> RunConfig:
    """The installed config, else one resolved from the environment."""
    return _installed if _installed is not None else RunConfig.from_env()


@contextmanager
def install(cfg: RunConfig) -> Iterator[RunConfig]:
    """Make ``cfg`` what :func:`current` returns inside the block, in
    this process and in every process forked from it meanwhile."""
    global _installed
    prev, _installed = _installed, cfg
    try:
        yield cfg
    finally:
        _installed = prev
