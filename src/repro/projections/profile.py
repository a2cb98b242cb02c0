"""The ``repro profile`` artifact: where does the time go?

Runs one application under timeline tracing and prints the top
overhead categories — the terminal-friendly cousin of the Perfetto
timeline.  Three sections:

* **per-category PE time** — how the run's busy time splits across
  entry execution, scheduler dispatch, CkDirect activity, and
  RTS-internal work (the paper's overhead taxonomy);
* **reconciliation** — timeline event counts cross-checked against the
  aggregate :class:`~repro.sim.trace.Trace` counters of the *same*
  run: the two instrumentation layers are independent, so agreement is
  a self-check that neither dropped events;
* **critical path** — the causal chain bounding the makespan, split
  into work and wait.

Lives outside the package ``__init__`` because it imports the app
drivers (which import the runtime, which imports the event log).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..network.params import ABE, MachineParams
from ..sim.eventq import eventq_name
from .analysis import (
    category_totals,
    critical_path_summary,
    name_totals,
    utilization_profile,
)
from .events import BUSY_CATEGORIES, CAT_ENTRY, CAT_RTS
from .eventlog import EventLog, tracing
from .export import render_utilization

#: app → (per-app default iterations, supported stacks)
_APPS = {
    "pingpong": (100, ("charm", "ckdirect", "mpi", "mpi-put")),
    "stencil": (4, ("charm", "ckdirect")),
    "openatom": (3, ("charm", "ckdirect")),
}

#: Timeline name-key ↔ aggregate Trace counter pairs that must agree.
_RECONCILE: List[Tuple[str, str, str]] = [
    ("messages sent", "send", "charm.msgs_sent"),
    ("messages executed", "__executed__", "pe.messages_executed"),
    ("poll sweeps", "poll_sweep", "pe.poll_sweeps"),
    ("poll detections", "poll_callback", "pe.poll_detections"),
    ("direct completions", "direct_callback", "pe.direct_completions"),
    ("puts issued", "put", "ckdirect.puts"),
    ("mpi sends", "mpi_send", "mpi.sends"),
    ("mpi recvs", "mpi_recv", "mpi.recvs"),
]


class ProfileError(ValueError):
    """Raised for unsupported app/stack combinations."""


def _run_app(app: str, machine: MachineParams, stack: str, size: int,
             iterations: int, n_pes: Optional[int]) -> str:
    if app == "pingpong":
        from ..apps.pingpong import (
            charm_pingpong,
            ckdirect_pingpong,
            mpi_pingpong,
            mpi_put_pingpong,
        )

        fn = {"charm": charm_pingpong, "ckdirect": ckdirect_pingpong,
              "mpi": mpi_pingpong, "mpi-put": mpi_put_pingpong}[stack]
        r = fn(machine, size, iterations)
        return f"{r.stack} pingpong, {r.nbytes}B, {r.rtt_us:.3f} us RTT"
    mode = "ckd" if stack == "ckdirect" else "msg"
    if app == "stencil":
        from ..apps.stencil.driver import run_stencil

        r = run_stencil(machine, n_pes or 16, iterations=iterations, mode=mode)
        return f"stencil/{mode}, {r.n_pes} PEs, {r.mean_iter_time * 1e3:.3f} ms/iter"
    if app == "openatom":
        from ..apps.openatom import abe_2cpn, run_openatom

        r = run_openatom(abe_2cpn(machine), n_pes or 16, mode=mode,
                         iterations=iterations)
        return (f"openatom/{mode}, {r.n_pes} PEs, "
                f"{r.mean_step_time * 1e3:.3f} ms/step")
    raise ProfileError(f"unknown app {app!r}; expected one of {sorted(_APPS)}")


def engine_summary(log: EventLog, wall_s: float) -> Dict[str, object]:
    """Event-engine throughput over every runtime the log traced.

    Sums ``sim.events_processed`` across the traced runtimes and
    names the event-queue implementation that backed them (see
    :mod:`repro.sim.eventq`), so dashboards can attribute wall-clock
    speedups to the queue rather than to workload changes.
    """
    from ..config import current

    events = 0
    impls: List[str] = []
    transport_stats: Optional[Dict[str, object]] = None
    for _label, owner, _n in log.runs:
        sim = getattr(owner, "sim", None)
        if sim is None:
            continue
        events += int(sim.events_processed)
        name = eventq_name(sim)
        if name not in impls:
            impls.append(name)
        ts = getattr(owner, "transport_stats", None)
        if ts is not None:
            if transport_stats is None:
                transport_stats = dict(ts)
            else:
                for k in ("frames", "bytes", "spills"):
                    transport_stats[k] += ts.get(k, 0)
    return {
        "eventq": impls[0] if len(impls) == 1 else (impls or ["unknown"]),
        "transport": current().transport,
        "transport_stats": transport_stats,
        "events": events,
        "wall_s": round(wall_s, 6),
        "events_per_s": round(events / wall_s, 1) if wall_s > 0 else 0.0,
    }


def _summed_counters(log: EventLog) -> Dict[str, int]:
    """Aggregate Trace counters over every runtime the log traced."""
    totals: Dict[str, int] = {}
    for _label, owner, _n in log.runs:
        trace = getattr(owner, "trace", None)
        if trace is None:
            continue
        for name, value in trace.summary()["counters"].items():
            totals[name] = totals.get(name, 0) + value
    return totals


def reconcile(log: EventLog) -> List[Dict[str, object]]:
    """Cross-check timeline event counts against Trace counters.

    Returns one row per applicable pair: the timeline count, the
    counter value, and whether they agree within 1 %.
    """
    names = name_totals(log)
    cats = category_totals(log)
    counters = _summed_counters(log)
    rows: List[Dict[str, object]] = []
    for label, key, counter in _RECONCILE:
        if key == "__executed__":
            observed = int(cats.get(CAT_ENTRY, {"events": 0})["events"]
                           + cats.get(CAT_RTS, {"events": 0})["events"])
        else:
            observed = int(names.get(key, {"events": 0})["events"])
        expected = counters.get(counter, 0)
        if observed == 0 and expected == 0:
            continue
        limit = max(observed, expected)
        ok = abs(observed - expected) <= 0.01 * limit
        rows.append({"label": label, "timeline": observed,
                     "counter": expected, "counter_name": counter, "ok": ok})
    return rows


def render_profile(log: EventLog, headline: str = "",
                   engine: Optional[Dict[str, object]] = None) -> str:
    """The full terminal profile report for a traced run."""
    cats = category_totals(log)
    busy_total = sum(row["time"] for cat, row in cats.items()
                     if cat in BUSY_CATEGORIES) or 1.0
    lines: List[str] = []
    if headline:
        lines.append(headline)
    lines.append(f"{len(log.events)} timeline events across "
                 f"{len(log.runs)} run(s)")
    if engine is not None:
        lines.append(
            f"engine: eventq={engine['eventq']}, "
            f"transport={engine.get('transport', 'pipe')}, "
            f"{engine['events']} sim events, "
            f"{engine['events_per_s'] / 1e6:.2f} M events/s"
        )
        ts = engine.get("transport_stats")
        if ts is not None:
            lines.append(
                f"transport: {ts['transport']}, {ts['frames']} frames, "
                f"{ts['bytes']} bytes, {ts['spills']} spills"
            )
    lines.append("")
    lines.append(f"{'category':<10} {'events':>8} {'time (us)':>12} {'% busy':>8}")
    order = sorted(cats.items(), key=lambda kv: kv[1]["time"], reverse=True)
    for cat, row in order:
        share = row["time"] / busy_total * 100 if cat in BUSY_CATEGORIES else 0.0
        pct = f"{share:>7.1f}%" if cat in BUSY_CATEGORIES else f"{'—':>8}"
        lines.append(f"{cat:<10} {int(row['events']):>8} "
                     f"{row['time'] * 1e6:>12.2f} {pct}")
    lines.append("")
    lines.append("reconciliation vs Trace counters:")
    recon = reconcile(log)
    if not recon:
        lines.append("  (no reconcilable categories)")
    for row in recon:
        mark = "OK" if row["ok"] else "MISMATCH"
        lines.append(f"  {row['label']:<20} timeline={row['timeline']:<8} "
                     f"{row['counter_name']}={row['counter']:<8} {mark}")
    cp = critical_path_summary(log)
    lines.append("")
    lines.append(
        f"critical path: {cp['events']} events, extent "
        f"{cp['extent'] * 1e6:.2f} us = work {cp['work'] * 1e6:.2f} us "
        f"+ wait {cp['wait'] * 1e6:.2f} us"
    )
    if cp["by_category"]:
        parts = ", ".join(f"{c} {t * 1e6:.2f}" for c, t in
                          sorted(cp["by_category"].items(),
                                 key=lambda kv: kv[1], reverse=True))
        lines.append(f"  chain work by category (us): {parts}")
    lines.append("")
    lines.append(render_utilization(log))
    return "\n".join(lines)


def run_profile(
    app: str = "pingpong",
    machine: Optional[MachineParams] = None,
    stack: str = "ckdirect",
    size: int = 30_000,
    iterations: Optional[int] = None,
    n_pes: Optional[int] = None,
    log: Optional[EventLog] = None,
) -> Dict[str, object]:
    """Run ``app`` under tracing and build the overhead report."""
    if app not in _APPS:
        raise ProfileError(f"unknown app {app!r}; expected one of {sorted(_APPS)}")
    default_iters, stacks = _APPS[app]
    if stack not in stacks:
        raise ProfileError(
            f"app {app!r} supports stacks {stacks}, not {stack!r}"
        )
    machine = machine if machine is not None else ABE
    iterations = iterations if iterations is not None else default_iters
    log = log if log is not None else EventLog()
    t0 = time.perf_counter()
    with tracing(log):
        headline = (f"profile: {app}/{stack} on {machine.name} — "
                    + _run_app(app, machine, stack, size, iterations, n_pes))
    engine = engine_summary(log, time.perf_counter() - t0)
    return {
        "app": app,
        "stack": stack,
        "machine": machine.name,
        "log": log,
        "engine": engine,
        "categories": category_totals(log),
        "names": name_totals(log),
        "reconciliation": reconcile(log),
        "critical_path": critical_path_summary(log),
        "utilization": utilization_profile(log),
        "report": render_profile(log, headline, engine),
    }
