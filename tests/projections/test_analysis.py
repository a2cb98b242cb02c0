"""Tests for the analysis passes on hand-built logs."""

import pytest

from repro.projections.analysis import (
    category_totals,
    critical_path,
    critical_path_summary,
    name_totals,
    spans_by_track,
    utilization_profile,
)
from repro.projections.events import CAT_ENTRY, CAT_IDLE, CAT_MSG, CAT_SCHED
from repro.projections.eventlog import EventLog


def _sample_log() -> EventLog:
    """Two PEs: pe0 does entry[0,2], idle[2,3], entry[3,4]; pe1 one
    entry[1,2] caused by a send from pe0's first entry."""
    log = EventLog()
    log.new_run("test", n_pes=2)
    e0 = log.span(0, 0, CAT_ENTRY, "go", 0.0, 2.0)
    send = log.instant(0, 0, CAT_MSG, "send:recv", 1.0, cause=e0)
    log.span(0, 0, CAT_IDLE, "idle", 2.0, 3.0)
    log.span(0, 0, CAT_ENTRY, "tick", 3.0, 4.0)
    d1 = log.span(0, 1, CAT_SCHED, "dispatch:recv", 1.4, 1.5, cause=send)
    log.span(0, 1, CAT_ENTRY, "recv", 1.5, 2.0, cause=d1)
    return log


def test_spans_by_track_sorted():
    log = _sample_log()
    tracks = spans_by_track(log)
    assert set(tracks) == {(0, 0), (0, 1)}
    t0s = [e.t0 for e in tracks[(0, 0)]]
    assert t0s == sorted(t0s)
    # instants are excluded
    assert all(e.is_span for spans in tracks.values() for e in spans)


def test_utilization_profile():
    prof = utilization_profile(_sample_log())
    pe0 = prof[(0, 0)]
    assert pe0["busy"] == pytest.approx(3.0)
    assert pe0["idle"] == pytest.approx(1.0)
    assert pe0["extent"] == pytest.approx(4.0)
    assert pe0["utilization"] == pytest.approx(0.75)
    pe1 = prof[(0, 1)]
    assert pe1["busy"] == pytest.approx(0.6)
    assert pe1["idle"] == 0.0


def test_category_and_name_totals():
    log = _sample_log()
    cats = category_totals(log)
    assert cats[CAT_ENTRY]["events"] == 3
    assert cats[CAT_ENTRY]["time"] == pytest.approx(3.5)
    assert cats[CAT_MSG]["events"] == 1
    assert cats[CAT_MSG]["time"] == 0.0
    names = name_totals(log)
    # qualified names aggregate under the prefix key
    assert names["send"]["events"] == 1
    assert names["dispatch"]["events"] == 1


def test_critical_path_walks_causes():
    log = _sample_log()
    chain = critical_path(log)
    # latest-finishing event is pe0's tick[3,4]; it has no cause, so
    # the chain is just itself
    assert [e.name for e in chain] == ["tick"]


def test_critical_path_chain_and_summary():
    log = EventLog()
    log.new_run("test", n_pes=2)
    a = log.span(0, 0, CAT_ENTRY, "go", 0.0, 1.0)
    s = log.instant(0, 0, CAT_MSG, "send:work", 0.5, cause=a)
    log.span(0, 1, CAT_ENTRY, "work", 2.0, 5.0, cause=s)
    chain = critical_path(log)
    assert [e.name for e in chain] == ["go", "send:work", "work"]
    cp = critical_path_summary(log)
    assert cp["events"] == 3
    assert cp["extent"] == pytest.approx(5.0)
    assert cp["work"] == pytest.approx(4.0)
    # gaps: go ends 1.0 -> send 0.5 (negative, ignored); send 0.5 -> work 2.0
    assert cp["wait"] == pytest.approx(1.5)
    assert cp["by_category"][CAT_ENTRY] == pytest.approx(4.0)


def test_critical_path_cycle_terminates():
    log = EventLog()
    a = log.next_id()
    b = log.span(0, 0, CAT_ENTRY, "b", 1.0, 2.0, cause=a)
    log.span(0, 0, CAT_ENTRY, "a", 0.0, 1.0, cause=b, eid=a)
    chain = critical_path(log)
    assert len(chain) == 2  # the seen-set breaks the cycle


def test_empty_log_summaries():
    assert critical_path(EventLog()) == []
    cp = critical_path_summary(EventLog())
    assert cp["events"] == 0 and cp["chain"] == []
    assert utilization_profile(EventLog()) == {}
