"""Benchmark: checksum cost on the clean path, and the measured price
of recovering a SIGKILL'd shard.

Two claims from the resilience layer are pinned here, both on the
paper's full-scale stencil point (1024 PEs, 4 shards):

* **Result verification is free on the clean path** — it is one
  sha256 per job, so the verified :class:`ResultStore` round trip
  stays < 3% of a fault-free sharded run plus its store round trip.
  (Heartbeats need no separate claim: they are the barrier messages
  the engine exchanges anyway.)
* **Recovery works at scale and its cost is bounded** — SIGKILL-ing
  one shard worker mid-run restarts + replays that
  shard and finishes with output identical to the serial baseline;
  the wall-clock premium over a clean run is reported (the replayed
  shard re-executes its whole window stream, so the premium is
  roughly one shard's share of the run).

Both tables land in ``benchmarks/results/`` and the numbers are
appended to ``BENCH_sweeps.json`` (kind ``resilience``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time

from conftest import BENCH_JSON_DEFAULT, record_stage, save_report
from repro.apps.stencil.driver import run_stencil
from repro.faults import ProcFaultPlan
from repro.network.params import ABE
from repro.serve.store import ResultStore

PES = 1024
ITERATIONS = 2
SHARDS = 4
ROUNDS = 4  # best-of
OVERHEAD_BAR = 3.0  # percent


def _run(shards=SHARDS, proc_faults=None):
    return run_stencil(ABE, PES, iterations=ITERATIONS, mode="ckd",
                       shards=shards, proc_faults=proc_faults,
                       keep_runtime=True)


def _fingerprint(r) -> str:
    """Digest of the run's observable output at full scale (the grids
    are virtual at 1024 PEs, so identity is iteration times + events —
    the same oracle the parallel-engine benchmark pins)."""
    doc = {"iter_times": r.iter_times, "events": r.events}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _append_entry(payload: dict) -> None:
    entries = []
    if BENCH_JSON_DEFAULT.exists():
        try:
            data = json.loads(BENCH_JSON_DEFAULT.read_text())
            entries = data if isinstance(data, list) else []
        except (OSError, ValueError):
            entries = []
    entries.append(payload)
    BENCH_JSON_DEFAULT.parent.mkdir(exist_ok=True)
    BENCH_JSON_DEFAULT.write_text(json.dumps(entries, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Clean path: the verified store round trip's share of the job
# ---------------------------------------------------------------------------


def _clean_path(tmp_path, tag: str) -> dict:
    """One full clean path: sharded run, result payload stored and
    read back through a verifying store."""
    t0 = time.perf_counter()
    r = _run()
    payload = json.dumps(
        {"iter_times": r.iter_times, "events": r.events}).encode()
    digest = hashlib.sha256(payload).hexdigest()
    s0 = time.perf_counter()
    store = ResultStore(tmp_path / tag, verify=True)
    store.put(digest, payload)
    assert store.get(digest) == payload
    t1 = time.perf_counter()
    assert r.runtime.supervision["restarts"] == 0
    return {"wall_s": t1 - t0, "store_s": t1 - s0}


def _best(rows: list, key: str) -> float:
    return min(row[key] for row in rows)


def test_clean_path_overhead_under_three_percent(tmp_path):
    rows = []
    for i in range(ROUNDS):
        gc.collect()
        rows.append(_clean_path(tmp_path, f"run{i}"))

    wall = _best(rows, "wall_s")
    store_pct = _best(rows, "store_s") / wall * 100.0
    cores = len(os.sched_getaffinity(0))

    report = "\n".join([
        f"Resilience clean path: stencil ckd {PES} PEs, {SHARDS} shards, "
        f"verified store (best of {ROUNDS}, host cores: {cores})",
        "=" * 66,
        f"wall: {wall:.3f} s",
        f"checksum store round-trip: {store_pct:.4f}% of the clean path",
    ])
    save_report("resilience_overhead", report)
    stage = {
        "wall_s": round(wall, 3),
        "store_share_pct": round(store_pct, 4),
        "cpu_count": cores,
    }
    record_stage("resilience_overhead", stage)
    _append_entry({
        "kind": "resilience",
        "point": f"stencil ckd {PES} PEs full-scale, {ITERATIONS} iters, "
                 f"{SHARDS} shards",
        "clean_path": stage,
    })

    assert store_pct < OVERHEAD_BAR, (
        f"checksum store round-trip is {store_pct:.2f}% of the clean path"
    )


# ---------------------------------------------------------------------------
# Recovery cost: kill-shard vs clean at 4 shards
# ---------------------------------------------------------------------------


def test_recovery_cost_kill_shard_full_scale():
    serial = _run(shards=1)
    reference = _fingerprint(serial)

    t0 = time.perf_counter()
    clean = _run()
    clean_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    killed = _run(proc_faults=ProcFaultPlan.named("kill-shard"))
    killed_wall = time.perf_counter() - t0

    sup = killed.runtime.supervision
    assert sup["restarts"] == 1 and sup["crashes"] == 1, (
        f"expected exactly one supervised restart, got {sup}"
    )
    assert not sup["degraded"]
    # The acceptance bar: recovery is invisible in the output.
    assert _fingerprint(clean) == reference, "clean run diverged"
    assert _fingerprint(killed) == reference, (
        "recovered run is not identical to the serial baseline"
    )
    row = {
        "clean_wall_s": round(clean_wall, 3),
        "killed_wall_s": round(killed_wall, 3),
        "recovery_premium_pct": round(
            (killed_wall - clean_wall) / clean_wall * 100.0, 1),
        "restarts": sup["restarts"],
    }

    lines = [
        f"Recovery cost: SIGKILL one of {SHARDS} shards, stencil ckd "
        f"{PES} PEs full-scale (host cores: {os.cpu_count()})",
        "=" * 66,
        f"{'clean s':>8}  {'killed s':>9}  {'premium':>8}  {'restarts':>8}",
        f"{row['clean_wall_s']:>8.3f}  {row['killed_wall_s']:>9.3f}  "
        f"{row['recovery_premium_pct']:>+7.1f}%  {row['restarts']:>8}",
        "output identical to the 1-shard serial baseline",
    ]
    save_report("resilience_recovery", "\n".join(lines))
    record_stage("resilience_recovery", [row])
    _append_entry({
        "kind": "resilience_recovery",
        "point": f"stencil ckd {PES} PEs full-scale, {ITERATIONS} iters, "
                 f"{SHARDS} shards, kill-shard",
        "cpu_count": os.cpu_count(),
        "rows": [row],
    })
