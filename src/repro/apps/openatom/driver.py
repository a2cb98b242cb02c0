"""Driver for the OpenAtom mini-app experiments (Figures 4 and 5).

Figures 4(a,b) and 5(a,b) plot time per step versus processor count
for the full application and for the PairCalculator-only variant
("PC"), each with CHARM++ messages versus CkDirect.  The Abe runs use
2 cores per node, as the paper did for these experiments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ...charm import CkCallback, Runtime
from ...charm.runtime import collector_off
from ...config import current
from ...faults import FaultPlan
from ...network.params import MachineParams
from .config import OpenAtomConfig
from .paircalc import Ortho
from .variants import (
    GSpaceCkd,
    GSpaceCkdFull,
    GSpaceMsg,
    PairCalcCkd,
    PairCalcCkdFull,
    PairCalcMsg,
)

MODES = {
    "msg": (GSpaceMsg, PairCalcMsg),
    "ckd": (GSpaceCkd, PairCalcCkd),
    # the paper's anticipated extension: CkDirect in the backward
    # (orthonormalization-return) path as well
    "ckd-full": (GSpaceCkdFull, PairCalcCkdFull),
}


class OpenAtomMonitor:
    """Barrier callbacks + per-step timing; re-arms PCs and resumes GS."""

    def __init__(self, rt: Runtime, iterations: int) -> None:
        self.rt = rt
        self.iterations = iterations
        self.gs_proxy = None
        self.pc_proxy = None
        self.barriers_seen = 0
        self.marks: List[float] = []
        # Host callbacks mutate this object on shard 0 of a sharded
        # run; registering it ships its data home with the run.
        rt.register_host_state(self)

    def on_barrier(self, _value=None) -> None:
        """Barrier-release hook: record the time, start the next step."""
        self.marks.append(self.rt.now)
        self.barriers_seen += 1
        if self.barriers_seen <= self.iterations:
            # phase notification first (ReadyPollQ), then the new step
            self.pc_proxy.bcast("arm")
            self.gs_proxy.bcast("resume")

    @property
    def step_times(self) -> List[float]:
        """Per-step durations (diffs of barrier marks)."""
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    def callback(self) -> CkCallback:
        """A CkCallback delivering to on_barrier."""
        return CkCallback.host(self.on_barrier)


@dataclass
class OpenAtomResult:
    """Result record of one OpenAtom run."""
    machine: str
    mode: str
    n_pes: int
    cfg: OpenAtomConfig
    step_times: List[float]
    runtime: Optional[Runtime] = field(default=None, repr=False)
    events: int = 0  # simulator events fired by the run

    @property
    def mean_step_time(self) -> float:
        """Steady-state step time (first step excluded)."""
        times = self.step_times[1:] if len(self.step_times) > 1 else self.step_times
        return float(np.mean(times))


def run_openatom(
    machine: MachineParams,
    n_pes: int,
    cfg: Optional[OpenAtomConfig] = None,
    mode: str = "msg",
    keep_runtime: bool = False,
    faults: Optional[str] = None,
    fault_seed: int = 0x0FA11,
    shards: Optional[int] = None,
    transport: Optional[str] = None,
    **cfg_overrides,
) -> OpenAtomResult:
    """One OpenAtom mini-app run.

    ``faults`` names a built-in fault profile: the run then executes on
    an imperfect fabric with the CkDirect reliability layer armed.

    ``shards`` (default: the configured count) selects the sharded
    parallel engine — bit-identical results, partitioned wall-clock work.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {sorted(MODES)}, got {mode!r}")
    if cfg is None:
        cfg = OpenAtomConfig(**cfg_overrides)
    elif cfg_overrides:
        cfg = dataclasses.replace(cfg, **cfg_overrides)
    gs_cls, pc_cls = MODES[mode]
    plan = FaultPlan.named(faults, fault_seed) if faults is not None else None
    rt = Runtime(machine, n_pes, fault_plan=plan,
                 shards=current().shards if shards is None else shards,
                 transport=transport)
    monitor = OpenAtomMonitor(rt, cfg.iterations)
    gs = rt.create_array(
        gs_cls, dims=(cfg.nstates, cfg.nplanes), ctor_args=(cfg, monitor)
    )
    pc = rt.create_array(
        pc_cls,
        dims=(cfg.nblocks, cfg.nblocks, cfg.nplanes),
        ctor_args=(cfg, monitor),
    )
    ortho = rt.create_array(Ortho, dims=(1,), ctor_args=(cfg, pc.id))
    monitor.gs_proxy = gs.proxy
    monitor.pc_proxy = pc.proxy
    for elem in gs.elements.values():
        elem._pc_array_id = pc.id
    for elem in pc.elements.values():
        elem._gs_array_id = gs.id
        elem._ortho_array_id = ortho.id

    pc.proxy.bcast("setup")
    gs.proxy.bcast("setup")
    # Off until close() has freed the run: a collection in between
    # would walk everything the run allocated.
    with collector_off():
        rt.run()
        if not keep_runtime:
            rt.close()
    if monitor.barriers_seen != cfg.iterations + 1:
        raise RuntimeError(
            f"openatom deadlocked: saw {monitor.barriers_seen} barriers, "
            f"expected {cfg.iterations + 1}"
        )
    result = OpenAtomResult(
        machine=machine.name,
        mode=mode,
        n_pes=n_pes,
        cfg=cfg,
        step_times=monitor.step_times,
        runtime=rt if keep_runtime else None,
        events=rt.events_processed,
    )
    return result


def openatom_point(
    machine: MachineParams, mode: str, n_pes: int, **cfg_overrides
) -> dict:
    """Picklable sweep-point adapter: one OpenAtom run → plain floats."""
    r = run_openatom(machine, n_pes, mode=mode, **cfg_overrides)
    return {"mean_s": r.mean_step_time, "events": r.events}


def abe_2cpn(machine: MachineParams) -> MachineParams:
    """The paper's Abe configuration for these runs: 2 cores per node
    ("to simplify analysis and highlight network effects", §5.2)."""
    if machine.kind != "ib":
        return machine
    return dataclasses.replace(machine, cores_per_node=2)
