"""One benchmark sample: a fresh process runs one workload once.

Started by ``run.py`` with the parent's ``time.monotonic()`` taken just
before the spawn (``--t0``), so ``setup_s`` covers interpreter start,
imports and runtime construction up to the timed phase.  Prints one
JSON line with the sample's measurements and its output digest.  With
``--setup-only`` the sample stops where the timed phase would begin
and reports ``setup_s`` alone.

    python3 perfbench/sample.py --workload stencil-pair --seed 1 --trace 0 --t0 <monotonic>
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _clock() -> dict:
    """Wall clocks plus CPU seconds of this process and its reaped
    children (shard workers are reaped before ``rt.run()`` returns)."""
    cpu = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        cpu += ru.ru_utime + ru.ru_stime
    return {"mono": time.monotonic(), "ns": time.perf_counter_ns(), "cpu": cpu}


class RunCounts:
    """The program's own counters, summed over every ``Runtime.run``."""

    def __init__(self) -> None:
        self.events = 0
        self.counters: dict = {}
        self.stat_totals: dict = {}
        self.parallel_rounds = 0
        self.transport = {"frames": 0, "bytes": 0, "spills": 0}
        self.restarts = 0
        self.shard_cpu_times: list = []
        self.shard_procs = 0
        self.config: dict = {}

    def add(self, rt) -> None:
        self.events += rt.events_processed
        for k, v in rt.trace.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v
        for k, st in rt.trace.stats.items():
            self.stat_totals[k] = self.stat_totals.get(k, 0.0) + st.total
        sharded = rt.parallel_rounds is not None
        if sharded:
            self.parallel_rounds += rt.parallel_rounds
            self.shard_cpu_times = list(rt.shard_cpu_times or [])
            self.shard_procs = max(self.shard_procs, len(self.shard_cpu_times))
        if rt.transport_stats:
            for k in self.transport:
                self.transport[k] += rt.transport_stats.get(k, 0)
        if rt.supervision:
            self.restarts += rt.supervision.get("restarts", 0)
        from repro.sim import eventq

        cfg = self.config
        cfg.setdefault("eventq", set()).add(getattr(rt.sim, "eventq_name", "?"))
        cfg.setdefault("compiled_core", set()).add(eventq._ceventq is not None)
        cfg.setdefault("engine", set()).add(rt.engine if sharded else "serial")
        cfg.setdefault("transport", set()).add(rt.transport if sharded else "none")
        cfg.setdefault("shards", set()).add(
            len(rt.shard_cpu_times) if sharded else 1)

    def as_dict(self) -> dict:
        from repro.sweep import stats as sweep_stats

        recs = sweep_stats.RECORDS
        d = dict(vars(self))
        d["config"] = {k: sorted(v) for k, v in self.config.items()}
        d["sweep_points"] = sum(r.points for r in recs)
        d["sweep_failed"] = sum(r.failed for r in recs)
        if recs:  # sweep workloads: the sweep's own per-point event totals
            d["events"] = sum(r.events for r in recs)
        return d


class SetupDone(Exception):
    """Raised where the timed phase begins in a setup-only sample."""


def run_sample(workload: str, seed: int, traced: bool, t0: float,
               span_dir: str, setup_only: bool = False) -> dict:
    sys.path.insert(0, HERE)
    rec = None
    if traced:
        from spans import SpanRecorder
        import layers

        rec = SpanRecorder()
        layers.install(rec, span_dir)
    import workloads
    from repro.charm.runtime import Runtime

    runner, phase_at_run = workloads.WORKLOADS[workload]
    phase = workloads.Phase(_clock)
    if setup_only:
        begin = phase.begin

        def begin_then_stop() -> None:
            begin()
            raise SetupDone

        phase.begin = begin_then_stop
    counts = RunCounts()
    run = Runtime.run

    def measured_run(self, *args, **kwargs):
        if phase_at_run:
            phase.begin()
        try:
            return run(self, *args, **kwargs)
        finally:
            if phase_at_run:
                phase.end()
            counts.add(self)

    Runtime.run = measured_run
    if rec is not None:
        workloads.check_shapes = rec.wrap(workloads.check_shapes, "bench.report")

    try:
        out = runner(seed, phase)
    except SetupDone:
        return {"setup_s": phase.begin_at["mono"] - t0}
    b, e = phase.begin_at, phase.end_at
    self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "digest": out["digest"],
        "setup_s": b["mono"] - t0,
        "wall_s": e["mono"] - b["mono"],
        "cpu_s": e["cpu"] - b["cpu"],
        # Coordinator peak plus, for sharded runs, the largest worker's
        # peak once per worker (ru_maxrss, KiB).
        "peak_rss_mb": (self_ru + counts.shard_procs * child_ru) / 1024.0,
        "counts": counts.as_dict(),
        "cpus": sorted(os.sched_getaffinity(0)),
    }
    if rec is not None:
        import layers
        import spans

        rec.flush(span_dir)
        procs = spans.load_dir(span_dir)
        result["layers"] = layers.layer_metrics(
            procs, result["counts"], result["wall_s"], (b["ns"], e["ns"]))
        result["spans"] = sum(len(p) for p in procs)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--span-dir", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # One CPU for the sample and the shard workers it forks.  On a small
    # shared VM, keeping two vCPUs busy at once is throttled by a
    # varying amount (hypervisor steal): with one CPU per shard worker
    # the 2-shard wall time spread 0.36 over ten runs in a busy period.
    # Pinned, wall_s is the run's total host work, not its parallel
    # time: shard imbalance and overlap do not move it, and cpu_s
    # equals wall_s (see the README).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = run_sample(args.workload, args.seed, bool(args.trace),
                            args.t0, args.span_dir, args.setup_only)
    except Exception:
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
