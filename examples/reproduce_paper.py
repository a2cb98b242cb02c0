#!/usr/bin/env python
"""Regenerate every table and figure of the paper in one run.

Prints each artifact side by side with the paper's printed values
(Tables 1-2) or textual claims (Figures 2-5), plus the three design
ablations.  This is the same harness the benchmark suite asserts
shapes on; see EXPERIMENTS.md for the recorded comparison.

Run:  python examples/reproduce_paper.py   (~95 s, one worker, 2-vCPU host)
      REPRO_FULL_SCALE=1 python examples/reproduce_paper.py
                        (adds the 2048/4096-PE BG/P points; slower)
"""

import time

from repro.bench import (
    run_backward_path_ablation,
    run_fig2a,
    run_fig2b,
    run_fig3,
    run_fig4,
    run_fig5,
    run_mpi_sync_ablation,
    run_polling_ablation,
    run_protocol_ablation,
    run_table1,
    run_table2,
    run_vr_ablation,
)
from repro.network.params import ABE, SURVEYOR

RUNNERS = [
    ("Table 1", lambda: run_table1(iterations=100)),
    ("Table 2", lambda: run_table2(iterations=100)),
    ("Figure 2(a)", run_fig2a),
    ("Figure 2(b)", run_fig2b),
    ("Figure 3 / BG-P", lambda: run_fig3(SURVEYOR)),
    ("Figure 3 / Abe", lambda: run_fig3(ABE)),
    ("Figure 4", run_fig4),
    ("Figure 5", run_fig5),
    ("Ablation A1 (polling)", run_polling_ablation),
    ("Ablation A2 (protocols)", run_protocol_ablation),
    ("Ablation A3 (MPI sync)", run_mpi_sync_ablation),
    ("Ablation A4 (virtualization)", run_vr_ablation),
    ("Ablation A5 (backward path)", run_backward_path_ablation),
]


def main() -> None:
    t0 = time.time()
    for name, runner in RUNNERS:
        start = time.time()
        result = runner()
        print(result["report"])
        print(f"[{name} regenerated in {time.time() - start:.1f}s]\n")
    print(f"all artifacts regenerated in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
