"""Parallel sweep execution for the benchmark artifacts.

The paper's tables and figures are *sweeps*: sets of independent
simulation points (one per machine/stack/size/PE-count combination)
merged into one report.  This package runs those points through a
:class:`SweepRunner` that can fan them out over a ``multiprocessing``
worker pool (``--jobs N``; see :mod:`repro.config`) while keeping the output
byte-identical to a serial run.

Layered as:

* :mod:`~repro.sweep.spec`   — picklable :class:`RunSpec` / :class:`RunResult`,
* :mod:`~repro.sweep.points` — the kind → point-function registry,
* :mod:`~repro.sweep.runner` — the pool, crash isolation, trace merge,
* :mod:`~repro.sweep.stats`  — per-sweep timing records for the bench
  trajectory (``BENCH_sweeps.json``).
"""

from . import stats
from .points import POINTS, point_function, register_point
from .runner import SweepRunner, execute_spec, run_sweep
from .spec import (
    ENGINE_SCHEMA,
    RunResult,
    RunSpec,
    SweepError,
    canonical_bytes,
    canonical_json,
    machine_overrides,
)
from .stats import SweepRecord

__all__ = [
    "ENGINE_SCHEMA",
    "POINTS",
    "canonical_bytes",
    "canonical_json",
    "RunResult",
    "RunSpec",
    "SweepError",
    "SweepRecord",
    "SweepRunner",
    "execute_spec",
    "machine_overrides",
    "point_function",
    "register_point",
    "run_sweep",
    "stats",
]
