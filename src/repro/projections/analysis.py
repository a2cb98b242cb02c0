"""Analysis passes over an :class:`~repro.projections.eventlog.EventLog`.

Three families, mirroring what the Projections tool computes for real
Charm++ runs:

* **Utilization profiles** — per-PE busy/idle accounting over the
  span timeline (:func:`utilization_profile`).
* **Overhead attribution** — total PE time and event counts per
  category and per name (:func:`category_totals`, :func:`name_totals`).
* **Critical path** — the longest causal chain through the
  message-causality graph (:func:`critical_path`,
  :func:`critical_path_summary`), an estimate of what bounds the
  makespan: each event carries the id of the event that caused it, so
  walking causes backward from the latest-finishing event yields the
  chain of sends, dispatches, executions, puts, and completions the
  run could not have finished without.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from .events import BUSY_CATEGORIES, CAT_IDLE, TraceEvent
from .eventlog import EventLog

Track = Tuple[int, int]  # (run, pe)


def spans_by_track(log: EventLog) -> Dict[Track, List[TraceEvent]]:
    """Span events grouped per (run, pe) track, ordered by start time."""
    out: Dict[Track, List[TraceEvent]] = defaultdict(list)
    for ev in log.events:
        if ev.is_span:
            out[ev.track].append(ev)
    for spans in out.values():
        spans.sort(key=lambda e: (e.t0, e.t1))
    return dict(out)


def utilization_profile(log: EventLog) -> Dict[Track, Dict[str, float]]:
    """Per-PE busy/idle accounting.

    For each track: ``busy`` (sum of non-idle span durations), ``idle``
    (explicit idle-gap spans), ``extent`` (first start → last end),
    ``utilization`` (busy / extent), and ``events`` (span count).
    """
    out: Dict[Track, Dict[str, float]] = {}
    for track, spans in spans_by_track(log).items():
        busy = sum(e.duration for e in spans if e.category in BUSY_CATEGORIES)
        idle = sum(e.duration for e in spans if e.category == CAT_IDLE)
        extent = spans[-1].t1 - spans[0].t0 if spans else 0.0
        out[track] = {
            "busy": busy,
            "idle": idle,
            "extent": extent,
            "utilization": busy / extent if extent > 0 else 0.0,
            "events": float(len(spans)),
        }
    return out


def category_totals(log: EventLog) -> Dict[str, Dict[str, float]]:
    """Event counts and total span time per category."""
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"events": 0, "time": 0.0})
    for ev in log.events:
        slot = out[ev.category]
        slot["events"] += 1
        slot["time"] += ev.duration
    return dict(out)


def name_totals(log: EventLog) -> Dict[str, Dict[str, float]]:
    """Event counts and total span time per name key (the prefix before
    ``:``), so per-channel / per-method qualifiers aggregate."""
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"events": 0, "time": 0.0})
    for ev in log.events:
        slot = out[ev.name_key]
        slot["events"] += 1
        slot["time"] += ev.duration
    return dict(out)


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------


def critical_path(log: EventLog) -> List[TraceEvent]:
    """The causal chain ending at the latest-finishing event.

    Walks ``cause`` links backward from the event with the greatest end
    time; the returned list runs cause-first.  This is the standard
    last-event backward walk over the message-causality graph: every
    link in the chain had to happen, in order, for the run to end when
    it did, so the chain's extent is a lower-bound explanation of the
    makespan.
    """
    if not log.events:
        return []
    index = log.by_eid()
    tail = max(log.events, key=lambda e: (e.t1, e.eid))
    chain: List[TraceEvent] = []
    seen = set()
    ev: Optional[TraceEvent] = tail
    while ev is not None and ev.eid not in seen:
        chain.append(ev)
        seen.add(ev.eid)
        ev = index.get(ev.cause) if ev.cause is not None else None
    chain.reverse()
    return chain


def critical_path_summary(log: EventLog) -> Dict[str, object]:
    """Aggregate view of :func:`critical_path`.

    ``extent`` is first-cause start → last-effect end; ``work`` the
    summed span durations on the chain; ``wait`` the gaps between
    consecutive chain events (network latency, queueing delay);
    ``by_category`` the per-category share of ``work``.
    """
    chain = critical_path(log)
    if not chain:
        return {"events": 0, "extent": 0.0, "work": 0.0, "wait": 0.0,
                "by_category": {}, "chain": []}
    work_by_cat: Dict[str, float] = defaultdict(float)
    for ev in chain:
        work_by_cat[ev.category] += ev.duration
    wait = 0.0
    for prev, nxt in zip(chain, chain[1:]):
        gap = nxt.t0 - prev.t1
        if gap > 0:
            wait += gap
    return {
        "events": len(chain),
        "extent": chain[-1].t1 - chain[0].t0,
        "work": sum(ev.duration for ev in chain),
        "wait": wait,
        "by_category": dict(work_by_cat),
        "chain": chain,
    }
