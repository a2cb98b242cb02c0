"""Benchmark: sharded-engine speedup on the 1024-PE full-scale stencil.

The parallel engine partitions one large run's simulated PEs over N
shard processes (``repro.sim.parallel``).  This benchmark runs the
paper's full-scale stencil point (1024 PEs, 1024x1024x512 domain,
virtualization 8) at 1/2/4/8 shards and asserts

* **identity** — iteration times and event counts are bit-identical at
  every shard count (the engine's core guarantee, here checked at the
  scale the engine exists for), and
* **speedup** — the per-shard CPU-time critical path
  (``max(shard_cpu_times)``, the wall-clock lower bound on a host with
  enough cores) improves by at least 2.5x at 4 shards.

CPU critical path is the primary metric because the CI container may
expose a single core: the forked shards then time-share it and elapsed
wall-clock physically cannot improve.  On a host with >= 4 cores the
elapsed-time speedup is asserted as well.

The measured trajectory is appended to ``results/BENCH_sweeps.json``
(kind ``parallel_engine``), so successive PRs track how the shard
scaling moves.
"""

from __future__ import annotations

import json
import os
import time

from conftest import BENCH_JSON_DEFAULT, save_report
from repro.apps.stencil.driver import run_stencil
from repro.network.params import ABE

PES = 1024
ITERATIONS = 2
SHARDS = (1, 2, 4, 8)
TARGET_SPEEDUP = 2.5


def _measure(shards: int) -> dict:
    t0 = time.perf_counter()
    r = run_stencil(ABE, PES, iterations=ITERATIONS, mode="ckd",
                    shards=shards, keep_runtime=True)
    wall = time.perf_counter() - t0
    return {
        "shards": shards,
        "wall_s": round(wall, 3),
        "crit_cpu_s": round(max(r.runtime.shard_cpu_times), 3),
        "events": r.events,
        "iter_times": r.iter_times,
        "mean_iter_ms": round(r.mean_iter_time * 1e3, 6),
    }


def _append_trajectory(rows: list) -> None:
    path = BENCH_JSON_DEFAULT
    entries = []
    if path.exists():
        try:
            data = json.loads(path.read_text())
            entries = data if isinstance(data, list) else []
        except (OSError, ValueError):
            entries = []
    entries.append({
        "kind": "parallel_engine",
        "point": f"stencil ckd {PES} PEs full-scale, {ITERATIONS} iters",
        "cpu_count": os.cpu_count(),
        "trajectory": [
            {k: row[k] for k in
             ("shards", "wall_s", "crit_cpu_s", "events")}
            for row in rows
        ],
        "speedup_cpu_at_4": round(
            rows[0]["crit_cpu_s"] / next(
                r["crit_cpu_s"] for r in rows if r["shards"] == 4), 2
        ),
    })
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(entries, indent=2) + "\n")


def test_shard_speedup_full_scale_stencil():
    rows = [_measure(s) for s in SHARDS]
    base = rows[0]

    lines = [
        f"Parallel engine: stencil ckd, {PES} PEs full-scale "
        f"({ITERATIONS} iterations, host cores: {os.cpu_count()})",
        "=" * 66,
        f"{'shards':>6}  {'wall s':>8}  {'crit cpu s':>10}  "
        f"{'cpu speedup':>11}  {'events':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['shards']:>6}  {row['wall_s']:>8.3f}  "
            f"{row['crit_cpu_s']:>10.3f}  "
            f"{base['crit_cpu_s'] / row['crit_cpu_s']:>11.2f}  "
            f"{row['events']:>9}"
        )
    save_report("parallel_engine", "\n".join(lines))
    _append_trajectory(rows)

    # Identity at scale: every shard count reproduces the same run.
    for row in rows[1:]:
        assert row["iter_times"] == base["iter_times"], (
            f"shards={row['shards']} diverged from the 1-shard baseline"
        )
        assert row["events"] == base["events"]

    four = next(r for r in rows if r["shards"] == 4)
    cpu_speedup = base["crit_cpu_s"] / four["crit_cpu_s"]
    assert cpu_speedup >= TARGET_SPEEDUP, (
        f"CPU critical-path speedup at 4 shards is {cpu_speedup:.2f}x, "
        f"target {TARGET_SPEEDUP}x "
        f"({base['crit_cpu_s']:.2f}s -> {four['crit_cpu_s']:.2f}s)"
    )

    cores = os.cpu_count() or 1
    if cores >= 4:
        wall_speedup = base["wall_s"] / four["wall_s"]
        assert wall_speedup >= TARGET_SPEEDUP, (
            f"elapsed speedup at 4 shards is {wall_speedup:.2f}x on a "
            f"{cores}-core host, target {TARGET_SPEEDUP}x"
        )

