"""Projections-style timeline tracing and profiling.

Charm++ ships Projections, a post-mortem timeline/utilization profiler;
the paper's overhead arguments (scheduler dequeue cost, poll-sweep cost
proportional to queue occupancy, rendezvous round trips) are exactly
the quantities a timeline view makes visible.  This package is the
equivalent observability layer for the simulated stack:

* :mod:`repro.projections.events` / :mod:`~repro.projections.eventlog`
  — typed span/instant records with causal links, collected by hooks
  threaded through the scheduler, runtime, CkDirect, and fabric
  layers.  Near-zero cost when disabled (one ``is None`` branch per
  hook site).
* :mod:`repro.projections.analysis` — per-PE utilization profiles,
  per-category overhead attribution, and a critical-path estimate
  over the message-causality graph.
* :mod:`repro.projections.export` — Chrome trace-event JSON (open in
  Perfetto / ``chrome://tracing``; one track per PE) and terminal
  utilization tables.
* :mod:`repro.projections.profile` — the ``repro profile`` artifact:
  run any app under tracing and report the top overhead categories,
  reconciled against the aggregate :class:`~repro.sim.trace.Trace`
  counters.  (Imported on demand — it pulls in the app drivers.)

Quickstart::

    from repro.projections import tracing, write_chrome_trace
    with tracing() as log:
        ckdirect_pingpong(ABE, 30_000, iterations=100)
    write_chrome_trace(log, "pingpong.trace.json")
"""

from .analysis import (
    category_totals,
    critical_path,
    critical_path_summary,
    name_totals,
    spans_by_track,
    utilization_profile,
)
from .events import (
    BUSY_CATEGORIES,
    CAT_CKDIRECT,
    CAT_ENTRY,
    CAT_IDLE,
    CAT_MPI,
    CAT_MSG,
    CAT_NET,
    CAT_RTS,
    CAT_SCHED,
    HOST_TRACK,
    NET_TRACK,
    ProjectionsError,
    TraceEvent,
)
from .eventlog import (
    EventLog,
    current_tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)
from .export import chrome_trace, render_utilization, write_chrome_trace

__all__ = [
    "EventLog",
    "TraceEvent",
    "ProjectionsError",
    "install_tracer",
    "uninstall_tracer",
    "current_tracer",
    "tracing",
    "chrome_trace",
    "write_chrome_trace",
    "render_utilization",
    "spans_by_track",
    "utilization_profile",
    "category_totals",
    "name_totals",
    "critical_path",
    "critical_path_summary",
    "CAT_ENTRY",
    "CAT_RTS",
    "CAT_SCHED",
    "CAT_CKDIRECT",
    "CAT_IDLE",
    "CAT_MPI",
    "CAT_MSG",
    "CAT_NET",
    "BUSY_CATEGORIES",
    "HOST_TRACK",
    "NET_TRACK",
]
