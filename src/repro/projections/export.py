"""Exporters: Chrome trace-event JSON and terminal summaries.

:func:`chrome_trace` renders an :class:`~repro.projections.eventlog.EventLog`
in the Chrome trace-event format (the ``traceEvents`` JSON array), so a
run opens directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``:

* each registered *run* (one ``Runtime`` / ``MPIWorld``) is a trace
  **process** (pid), labelled by machine and stack;
* each PE is a **thread** (tid) inside its run — one track per PE,
  named ``PE 0`` … ``PE n-1`` — plus pseudo-tracks ``host`` (mainchare
  injections) and ``net`` (wire-level events);
* spans become complete events (``ph: "X"``), instants become instant
  events (``ph: "i"``); timestamps are microseconds, as the format
  requires; each event's ``args`` carry its ``eid`` and ``cause`` so
  causality survives the export.

:func:`render_utilization` prints the per-PE utilization profile as a
terminal table with bar-chart sparks.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .analysis import utilization_profile
from .events import HOST_TRACK, TraceEvent
from .eventlog import EventLog

#: Fixed pseudo-track thread ids (PE k maps to tid k + 2).
_NET_TID = 0
_HOST_TID = 1


def _tid(pe: int) -> int:
    if pe >= 0:
        return pe + 2
    return _HOST_TID if pe == HOST_TRACK else _NET_TID


def _track_name(pe: int) -> str:
    if pe >= 0:
        return f"PE {pe}"
    return "host" if pe == HOST_TRACK else "net"


def _event_json(ev: TraceEvent) -> Dict:
    args = dict(ev.args) if ev.args else {}
    args["eid"] = ev.eid
    if ev.cause is not None:
        args["cause"] = ev.cause
    rec: Dict = {
        "name": ev.name,
        "cat": ev.category,
        "pid": ev.run,
        "tid": _tid(ev.pe),
        "ts": ev.t0 * 1e6,
        "args": args,
    }
    if ev.is_span:
        rec["ph"] = "X"
        rec["dur"] = ev.duration * 1e6
    else:
        rec["ph"] = "i"
        rec["s"] = "t"  # thread-scoped instant
    return rec


def chrome_trace(log: EventLog) -> Dict:
    """The full Chrome trace-event document as a plain dict."""
    records: List[Dict] = []
    for run, (label, _owner, n_pes) in enumerate(log.runs):
        records.append({
            "ph": "M", "pid": run, "name": "process_name",
            "args": {"name": label or f"run {run}"},
        })
        # One named track per PE of the run, declared up front so the
        # timeline shows every PE even when some stayed silent.
        for pe in range(n_pes):
            records.append({
                "ph": "M", "pid": run, "tid": _tid(pe), "name": "thread_name",
                "args": {"name": _track_name(pe)},
            })
            records.append({
                "ph": "M", "pid": run, "tid": _tid(pe), "name": "thread_sort_index",
                "args": {"sort_index": _tid(pe)},
            })
    # Pseudo-tracks only where events actually landed.
    seen_pseudo = {(ev.run, ev.pe) for ev in log.events if ev.pe < 0}
    for run, pe in sorted(seen_pseudo):
        records.append({
            "ph": "M", "pid": run, "tid": _tid(pe), "name": "thread_name",
            "args": {"name": _track_name(pe)},
        })
    records.extend(_event_json(ev) for ev in
                   sorted(log.events, key=lambda e: (e.run, e.t0, e.eid)))
    return {
        "traceEvents": records,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.projections",
            "runs": [label for label, _o, _n in log.runs],
            "time_unit": "us (simulated)",
        },
    }


def write_chrome_trace(log: EventLog, path: str) -> int:
    """Write the Chrome-trace JSON to ``path``; returns the event count."""
    doc = chrome_trace(log)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return len(log.events)


# ---------------------------------------------------------------------------
# Terminal views
# ---------------------------------------------------------------------------


def render_utilization(log: EventLog, width: int = 30) -> str:
    """Per-PE utilization profile as a terminal table."""
    profile = utilization_profile(log)
    if not profile:
        return "(no span events recorded)"
    lines = [f"{'track':<16} {'busy (us)':>12} {'util %':>8}  timeline"]
    for (run, pe), row in sorted(profile.items()):
        label = f"run{run}/{_track_name(pe)}"
        bar = "#" * max(1, round(row["utilization"] * width)) if row["busy"] else ""
        lines.append(
            f"{label:<16} {row['busy'] * 1e6:>12.2f} "
            f"{row['utilization'] * 100:>7.1f}%  {bar:<{width}}"
        )
    return "\n".join(lines)
