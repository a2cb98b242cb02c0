"""Driver for the stencil experiments (Figure 2).

Runs the 3D Jacobi benchmark at a given machine/PE-count/mode and
reports per-iteration times; :func:`stencil_improvement` runs the MSG
and CKD versions back to back and returns the percentage improvement —
the quantity Figure 2 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Type

import numpy as np

from ...charm import Runtime
from ...charm.runtime import collector_off
from ...config import current
from ...faults import FaultPlan, ProcFaultPlan
from ...network.params import MachineParams
from ...util.stats import percent_improvement
from .base import IterationMonitor, JacobiBase
from .decomp import choose_grid
from .jacobi_ckd import JacobiCkd
from .jacobi_msg import JacobiMsg

MODES = {"msg": JacobiMsg, "ckd": JacobiCkd}

#: Paper configuration: 1024 x 1024 x 512 elements, virtualization 8.
PAPER_DOMAIN: Tuple[int, int, int] = (1024, 1024, 512)
PAPER_VR = 8


@dataclass
class StencilResult:
    """Result record of one stencil run."""
    machine: str
    mode: str
    n_pes: int
    vr: int
    domain: Tuple[int, int, int]
    grid: Tuple[int, int, int]
    iterations: int
    iter_times: List[float]
    runtime: Optional[Runtime] = field(default=None, repr=False)
    events: int = 0  # simulator events fired by the run

    @property
    def mean_iter_time(self) -> float:
        """Steady-state iteration time (first iteration excluded: it
        absorbs cold-start queue effects)."""
        times = self.iter_times[1:] if len(self.iter_times) > 1 else self.iter_times
        return float(np.mean(times))


def run_stencil(
    machine: MachineParams,
    n_pes: int,
    domain: Tuple[int, int, int] = PAPER_DOMAIN,
    vr: int = PAPER_VR,
    iterations: int = 4,
    mode: str = "msg",
    validate: bool = False,
    seed: int = 20090922,
    keep_runtime: bool = False,
    faults: Optional[str] = None,
    fault_seed: int = 0x0FA11,
    shards: Optional[int] = None,
    proc_faults: Optional["ProcFaultPlan"] = None,
    transport: Optional[str] = None,
) -> StencilResult:
    """One stencil run.  ``vr`` chares per PE, near-cubic blocks.

    ``faults`` names a built-in fault profile (``drop``,
    ``torn-sentinel``, ...): the run then executes on an imperfect
    fabric with the CkDirect reliability layer armed.

    ``shards`` (default: the configured count) selects the sharded
    parallel engine — bit-identical results, partitioned wall-clock work.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {sorted(MODES)}, got {mode!r}")
    cls: Type[JacobiBase] = MODES[mode]
    n_chares = n_pes * vr
    grid = choose_grid(domain, n_chares)
    plan = FaultPlan.named(faults, fault_seed) if faults is not None else None
    rt = Runtime(machine, n_pes, fault_plan=plan,
                 shards=current().shards if shards is None else shards,
                 proc_faults=proc_faults, transport=transport)
    monitor_box: list = []

    # The monitor needs the proxy, the array ctor needs the monitor:
    # create the monitor first with a late-bound proxy.
    monitor = IterationMonitor(rt, None, iterations)
    arr = rt.create_array(
        cls,
        dims=grid,
        ctor_args=(domain, grid, iterations, validate, seed, monitor),
    )
    monitor.proxy = arr.proxy
    arr.proxy.bcast("setup")
    # Off until close() has freed the run: a collection in between
    # would walk everything the run allocated.
    with collector_off():
        rt.run()
        if not keep_runtime:
            rt.close()
    if monitor.barriers_seen != iterations + 1:
        raise RuntimeError(
            f"stencil deadlocked: saw {monitor.barriers_seen} barriers, "
            f"expected {iterations + 1}"
        )
    result = StencilResult(
        machine=machine.name,
        mode=mode,
        n_pes=n_pes,
        vr=vr,
        domain=domain,
        grid=grid,
        iterations=iterations,
        iter_times=monitor.iter_times,
        runtime=rt if keep_runtime else None,
        events=rt.events_processed,
    )
    return result


def stencil_point(
    machine: MachineParams, mode: str, n_pes: int, **kwargs
) -> dict:
    """Picklable sweep-point adapter: one stencil run → plain floats.

    Used by :mod:`repro.sweep.points`; must stay a module-level
    function so worker processes resolve it by qualified name.
    """
    r = run_stencil(machine, n_pes, mode=mode, **kwargs)
    return {"mean_s": r.mean_iter_time, "events": r.events}


def gather_grid(result: StencilResult) -> np.ndarray:
    """Assemble the global grid from a validation run's blocks."""
    if result.runtime is None:
        raise ValueError("run with keep_runtime=True to gather the grid")
    arr = next(
        a for a in result.runtime.arrays.values() if not a.internal
    )
    out = np.zeros(result.domain)
    bx = result.domain[0] // result.grid[0]
    by = result.domain[1] // result.grid[1]
    bz = result.domain[2] // result.grid[2]
    for idx, elem in arr.elements.items():
        interior = elem.interior()
        if interior is None:
            raise ValueError("gather_grid requires validate=True blocks")
        i, j, k = idx
        out[i * bx:(i + 1) * bx, j * by:(j + 1) * by, k * bz:(k + 1) * bz] = interior
    return out


def stencil_improvement(
    machine: MachineParams,
    n_pes: int,
    domain: Tuple[int, int, int] = PAPER_DOMAIN,
    vr: int = PAPER_VR,
    iterations: int = 4,
) -> Tuple[float, StencilResult, StencilResult]:
    """Percent improvement of CKD over MSG (the Figure 2 metric)."""
    msg = run_stencil(machine, n_pes, domain, vr, iterations, mode="msg")
    ckdr = run_stencil(machine, n_pes, domain, vr, iterations, mode="ckd")
    gain = percent_improvement(msg.mean_iter_time, ckdr.mean_iter_time)
    return gain, msg, ckdr
