"""Driver for the matmul experiments (Figure 3).

Figure 3 plots *execution time per iteration* versus processor count
for the MSG and CKD versions, on Blue Gene/P (up to 4096 PEs) and Abe
(up to 256); CkDirect scales better because the per-processor message
count grows as the cube root of the processor count while its
per-message savings stay constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Type

import numpy as np

from ...charm import Runtime
from ...charm.runtime import collector_off
from ...config import current
from ...faults import FaultPlan
from ...network.params import MachineParams
from ..stencil.base import IterationMonitor
from .base import MatMulBase
from .decomp3d import MatMulSpec, choose_side, global_a, global_b
from .matmul_ckd import MatMulCkd
from .matmul_msg import MatMulMsg

MODES = {"msg": MatMulMsg, "ckd": MatMulCkd}

#: Paper configuration: 2048 x 2048 input matrices.
PAPER_N = 2048


@dataclass
class MatMulResult:
    """Result record of one matmul run."""
    machine: str
    mode: str
    n_pes: int
    N: int
    c: int
    iterations: int
    iter_times: List[float]
    runtime: Optional[Runtime] = field(default=None, repr=False)
    events: int = 0  # simulator events fired by the run

    @property
    def mean_iter_time(self) -> float:
        """Steady-state iteration time (first iteration excluded)."""
        times = self.iter_times[1:] if len(self.iter_times) > 1 else self.iter_times
        return float(np.mean(times))


def run_matmul(
    machine: MachineParams,
    n_pes: int,
    N: int = PAPER_N,
    c: Optional[int] = None,
    iterations: int = 3,
    mode: str = "msg",
    validate: bool = False,
    seed: int = 20090923,
    keep_runtime: bool = False,
    faults: Optional[str] = None,
    fault_seed: int = 0x0FA11,
    shards: Optional[int] = None,
    transport: Optional[str] = None,
) -> MatMulResult:
    """One matmul run on ``n_pes`` PEs with a ``c^3`` chare grid.

    ``faults`` names a built-in fault profile: the run then executes on
    an imperfect fabric with the CkDirect reliability layer armed.

    ``shards`` (default: the configured count) selects the sharded
    parallel engine — bit-identical results, partitioned wall-clock work.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {sorted(MODES)}, got {mode!r}")
    cls: Type[MatMulBase] = MODES[mode]
    side = c if c is not None else choose_side(N, n_pes)
    spec = MatMulSpec(N, side)
    plan = FaultPlan.named(faults, fault_seed) if faults is not None else None
    rt = Runtime(machine, n_pes, fault_plan=plan,
                 shards=current().shards if shards is None else shards,
                 transport=transport)
    monitor = IterationMonitor(rt, None, iterations)
    arr = rt.create_array(
        cls,
        dims=(side, side, side),
        ctor_args=(spec, iterations, validate, seed, monitor),
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
            f"matmul deadlocked: saw {monitor.barriers_seen} barriers, "
            f"expected {iterations + 1}"
        )
    result = MatMulResult(
        machine=machine.name,
        mode=mode,
        n_pes=n_pes,
        N=N,
        c=side,
        iterations=iterations,
        iter_times=monitor.iter_times,
        runtime=rt if keep_runtime else None,
        events=rt.events_processed,
    )
    return result


def matmul_point(
    machine: MachineParams, mode: str, n_pes: int, **kwargs
) -> dict:
    """Picklable sweep-point adapter: one matmul run → plain floats."""
    r = run_matmul(machine, n_pes, mode=mode, **kwargs)
    return {"mean_s": r.mean_iter_time, "events": r.events}


def gather_c(result: MatMulResult) -> np.ndarray:
    """Assemble the global product from a validation run's roots."""
    if result.runtime is None:
        raise ValueError("run with keep_runtime=True to gather C")
    arr = next(a for a in result.runtime.arrays.values() if not a.internal)
    n = result.N // result.c
    out = np.zeros((result.N, result.N))
    for x in range(result.c):
        for y in range(result.c):
            elem = arr.elements[(x, y, 0)]
            if elem.C is None:
                raise ValueError("gather_c requires validate=True")
            out[x * n:(x + 1) * n, y * n:(y + 1) * n] = elem.C
    return out


def reference_c(result: MatMulResult, seed: int = 20090923) -> np.ndarray:
    """The product implied by the deterministic input slices."""
    spec = MatMulSpec(result.N, result.c)
    return global_a(spec, seed) @ global_b(spec, seed)


def matmul_pair(
    machine: MachineParams,
    n_pes: int,
    N: int = PAPER_N,
    iterations: int = 3,
) -> Tuple[MatMulResult, MatMulResult]:
    """MSG and CKD runs at identical configuration (Figure 3 points)."""
    msg = run_matmul(machine, n_pes, N, iterations=iterations, mode="msg")
    ckdr = run_matmul(machine, n_pes, N, iterations=iterations, mode="ckd")
    return msg, ckdr
