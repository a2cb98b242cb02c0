"""ASCII rendering of reproduced tables and figure series.

The harness prints, for every experiment, the same rows/series the
paper reports, side by side with the paper's values where the paper
printed any (Tables 1–2) and against the recorded textual claims for
the figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..util.units import fmt_bytes


def _fmt_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(c.rjust(w) for c, w in zip(cells, widths))


def render_table(
    title: str,
    sizes: Sequence[int],
    measured: Dict[str, Sequence[float]],
    paper: Optional[Dict[str, Sequence[float]]] = None,
    unit: str = "us RTT",
) -> str:
    """One pingpong-style table: stacks x sizes, ours vs paper's."""
    lines = [title, "=" * len(title)]
    header = ["stack"] + [fmt_bytes(s) for s in sizes]
    rows: List[List[str]] = []
    for stack, vals in measured.items():
        rows.append([f"{stack} (ours)"] + [f"{v:.2f}" for v in vals])
        if paper and stack in paper:
            rows.append([f"{stack} (paper)"] + [f"{v:.2f}" for v in paper[stack]])
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines.append(_fmt_row(header, widths))
    lines.append(_fmt_row(["-" * w for w in widths], widths))
    for r in rows:
        lines.append(_fmt_row(r, widths))
    lines.append(f"(unit: {unit})")
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    xs: Sequence,
    series: Dict[str, Sequence[float]],
    unit: str,
    claim: Optional[str] = None,
) -> str:
    """One figure-style series table: PE counts x variants."""
    lines = [title, "=" * len(title)]
    if claim:
        lines.append(f"paper claim: {claim}")
    header = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(xs):
        rows.append([str(x)] + [f"{series[k][i]:.3f}" for k in series])
    widths = [max(len(r[j]) for r in [header] + rows) for j in range(len(header))]
    lines.append(_fmt_row(header, widths))
    lines.append(_fmt_row(["-" * w for w in widths], widths))
    for r in rows:
        lines.append(_fmt_row(r, widths))
    lines.append(f"(unit: {unit})")
    return "\n".join(lines)
