"""Tests for the event log core: records, context stack, installation."""

import pytest

from repro.projections.events import (
    CAT_ENTRY,
    CAT_MSG,
    KIND_INSTANT,
    KIND_SPAN,
    ProjectionsError,
    TraceEvent,
)
from repro.projections.eventlog import (
    EventLog,
    current_tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)


def test_span_and_instant_records():
    log = EventLog()
    a = log.span(0, 0, CAT_ENTRY, "go", 1.0, 2.0)
    b = log.instant(0, 1, CAT_MSG, "send:go", 1.5, cause=a)
    assert len(log) == 2
    ev_a, ev_b = log.events
    assert ev_a.kind == KIND_SPAN and ev_a.is_span
    assert ev_a.duration == pytest.approx(1.0)
    assert ev_b.kind == KIND_INSTANT and not ev_b.is_span
    assert ev_b.duration == 0.0
    assert ev_b.cause == a
    assert b > a  # ids are allocation-ordered


def test_backwards_span_rejected():
    with pytest.raises(ProjectionsError):
        TraceEvent(0, KIND_SPAN, 0, 0, CAT_ENTRY, "x", 2.0, 1.0)


def test_name_key_strips_qualifier():
    log = EventLog()
    log.instant(0, 0, CAT_MSG, "send:ping", 0.0)
    log.instant(0, 0, CAT_MSG, "send:pong", 0.0)
    log.instant(0, 0, CAT_MSG, "plain", 0.0)
    keys = [ev.name_key for ev in log.events]
    assert keys == ["send", "send", "plain"]


def test_preallocated_eid_for_wrapping_spans():
    log = EventLog()
    eid = log.next_id()
    log.push(eid)
    inner = log.instant(0, 0, CAT_MSG, "send:x", 1.0, cause=log.current)
    log.pop()
    outer = log.span(0, 0, CAT_ENTRY, "go", 0.0, 2.0, eid=eid)
    assert outer == eid
    assert log.events[0].cause == eid  # inner caused by the wrapping span
    assert inner != eid


def test_context_stack_nesting():
    log = EventLog()
    assert log.current is None
    log.push(7)
    log.push(9)
    assert log.current == 9
    log.pop()
    assert log.current == 7
    log.pop()
    assert log.current is None


def test_new_run_sequential_and_recorded():
    log = EventLog()
    owner = object()
    assert log.new_run("charm:Abe", owner=owner, n_pes=4) == 0
    assert log.new_run("mpi:MVAPICH@Abe") == 1
    assert log.runs[0] == ("charm:Abe", owner, 4)
    assert log.runs[1][2] == 0


def test_by_eid_and_clear():
    log = EventLog()
    log.new_run("r")
    a = log.span(0, 0, CAT_ENTRY, "go", 0.0, 1.0)
    assert log.by_eid()[a].name == "go"
    log.clear()
    assert len(log) == 0
    assert log.runs  # registrations survive a clear


def test_install_uninstall():
    assert current_tracer() is None
    log = EventLog()
    install_tracer(log)
    try:
        assert current_tracer() is log
    finally:
        uninstall_tracer()
    assert current_tracer() is None


def test_tracing_contextmanager_restores_previous():
    outer = EventLog()
    install_tracer(outer)
    try:
        with tracing() as inner:
            assert current_tracer() is inner
            assert inner is not outer
        assert current_tracer() is outer
    finally:
        uninstall_tracer()
    with tracing() as log:
        assert current_tracer() is log
    assert current_tracer() is None
