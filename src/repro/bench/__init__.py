"""The table/figure regeneration harness.

One runner per artifact of the paper's evaluation:

* :func:`run_table1` / :func:`run_table2` — pingpong microbenchmark,
* :func:`run_fig2a` / :func:`run_fig2b` — stencil improvement,
* :func:`run_fig3` — matmul scaling (call per machine),
* :func:`run_fig4` / :func:`run_fig5` — OpenAtom step times,
* :func:`run_polling_ablation` / :func:`run_protocol_ablation` /
  :func:`run_mpi_sync_ablation` — the DESIGN.md ablations.

:mod:`repro.bench.shapes` holds the assertions; `repro.bench.paper_data`
the paper's printed numbers and textual claims.
"""

from . import paper_data, shapes
from .chaos import run_chaos
from .harness import (
    full_scale,
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
from .report import render_series, render_table
from .shapes import ShapeError

__all__ = [
    "run_chaos",
    "run_table1",
    "run_table2",
    "run_fig2a",
    "run_fig2b",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_polling_ablation",
    "run_protocol_ablation",
    "run_mpi_sync_ablation",
    "run_vr_ablation",
    "run_backward_path_ablation",
    "full_scale",
    "paper_data",
    "shapes",
    "ShapeError",
    "render_table",
    "render_series",
]
