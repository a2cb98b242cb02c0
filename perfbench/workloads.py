"""The benchmark's workloads: what one sample runs and what it must output.

Every workload runs the package's default configuration through its
public API; the harness strips inherited ``REPRO_*`` settings before
starting a sample, so nothing but the workload's own arguments picks
an engine, queue or transport.

* ``stencil-pair`` — the paper's full-scale stencil point (Abe /
  Infiniband, 1024 PEs, 1024x1024x512, VR 8) in both of the paper's
  modes, one after the other in one process: message mode on the
  conservative engine with two supervised shard workers over the
  default pipe transport, then CkDirect mode on the serial engine
  (the ROADMAP's north-star single run).  The message run is the only
  one where the ``parallel`` codec, ``transport`` and ``resilience``
  layers work; the CkDirect run is heaviest in ``sim``, charm
  scheduling/polling and ``ckdirect``.
* ``paper-bgp`` — the Blue Gene/P half of the paper (Table 2,
  Figure 3 on Surveyor, Figure 5) through ``repro.bench`` at reduced
  PE counts: many medium simulations, the BG/P torus and DCMF direct
  completions, OpenAtom collectives and simulated MPI.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Optional

#: Stencil iterations: the first is the cold start ``run_stencil``'s
#: ``mean_iter_time`` drops, the second is steady state.
STENCIL_ITERATIONS = 2
STENCIL_PES = 1024
#: Reduced PE lists for the BG/P artifacts (Figure 3 needs two points
#: for its strong-scaling ordering; one Figure 5 point alone takes
#: ~13 s on a 2-vCPU Xeon VM).
FIG3_PES = (64, 256)
FIG5_PES = (64,)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()[:32]


def stencil_digest(iter_times, events: int) -> str:
    """Iteration times (exact, as hex floats) plus the event count."""
    return _digest({"iter_times": [float(t).hex() for t in iter_times],
                    "events": int(events)})


class Phase:
    """Start/end of the timed phase, as set by the workload."""

    def __init__(self, clock: Callable[[], dict]) -> None:
        self._clock = clock
        self.begin_at: Optional[dict] = None
        self.end_at: Optional[dict] = None

    def begin(self) -> None:
        if self.begin_at is None:
            self.begin_at = self._clock()

    def end(self) -> None:
        self.end_at = self._clock()


def run_stencil_mode(mode: str, shards: Optional[int], seed: int) -> str:
    """One full-scale stencil run; returns its digest."""
    from repro.apps.stencil.driver import run_stencil
    from repro.network.params import ABE

    r = run_stencil(ABE, STENCIL_PES, mode=mode, iterations=STENCIL_ITERATIONS,
                    seed=seed, shards=shards)
    return stencil_digest(r.iter_times, r.events)


def run_stencil_pair(shards: Optional[int], seed: int) -> dict:
    """The message-mode run on ``shards`` shards, then the CkDirect run
    on the serial engine.  The phase starts at the first ``rt.run()``
    and ends when the last one returns, so it includes building the
    second runtime."""
    return {"digest": _digest({"msg": run_stencil_mode("msg", shards, seed),
                               "ckd": run_stencil_mode("ckd", None, seed)})}


def check_shapes(t2: dict, f3: dict, f5: dict) -> None:
    """The claims the Table 2 / Figure 3 / Figure 5 benchmarks
    (``benchmarks/test_table2_*``, ``test_fig3_*``, ``test_fig5_*``)
    assert on BG/P, at this workload's PE counts: ``repro.bench.shapes``
    checks, Figure 3's strong scaling and Figure 5's slight-but-real
    gains."""
    from repro.bench import paper_data, shapes

    m = t2["measured"]
    shapes.assert_ckdirect_always_wins(
        t2["sizes"], m["Default CHARM++"], m["CkDirect CHARM++"])
    shapes.assert_ckdirect_beats_mpi(
        t2["sizes"], m["CkDirect CHARM++"],
        {"MPI": m["MPI"], "MPI-Put": m["MPI-Put"]})
    for stack, tol in (("Default CHARM++", 0.08), ("CkDirect CHARM++", 0.10),
                       ("MPI", 0.10), ("MPI-Put", 0.18)):
        shapes.assert_within_tolerance(
            t2["sizes"], m[stack], paper_data.TABLE2_RTT_US[stack], tol,
            f"Table2/{stack}")
    shapes.assert_all_nonnegative(f3["pes"], f3["gains"], slack_pct=0.5,
                                  label="fig3/bgp")
    for key in ("msg_ms", "ckd_ms"):
        times = f3[key]
        assert all(b < a for a, b in zip(times, times[1:])), (
            f"fig3/bgp {key} not strong-scaling: {times}")
    gains = f5["full"]["gains"]
    shapes.assert_all_nonnegative(f5["full"]["pes"], gains, slack_pct=2.0,
                                  label="fig5/full")
    assert sum(gains) / len(gains) > 0.0, f"fig5 mean gain not positive: {gains}"
    assert max(gains) < 15.0, f"fig5 gains not slight: {gains}"


def run_paper_bgp(phase: Phase) -> dict:
    """Table 2, Figure 3 (Surveyor) and Figure 5, serially, with the
    harness's own report rendering; the phase spans all three plus the
    shape checks."""
    from repro.bench import run_fig3, run_fig5, run_table2
    from repro.network.params import SURVEYOR

    phase.begin()
    t2 = run_table2()
    f3 = run_fig3(SURVEYOR, pes=FIG3_PES)
    f5 = run_fig5(pes=FIG5_PES)
    check_shapes(t2, f3, f5)
    phase.end()
    return {"digest": _digest([t2["report"], f3["report"], f5["report"]])}


#: name -> (runner(seed, phase) -> {"digest": ...}, phase starts at rt.run()).
WORKLOADS: Dict[str, tuple] = {
    "stencil-pair": (lambda seed, phase: run_stencil_pair(2, seed), True),
    "paper-bgp": (lambda seed, phase: run_paper_bgp(phase), False),
}

#: The reference configuration whose digest each workload must match
#: (``make_oracle.py`` regenerates ``expected.json`` from these).
REFERENCE: Dict[str, Callable[[int], dict]] = {
    # The sharded message run must reproduce the single-shard engine run.
    "stencil-pair": lambda seed: run_stencil_pair(1, seed),
    "paper-bgp": lambda seed: run_paper_bgp(Phase(dict)),
}
