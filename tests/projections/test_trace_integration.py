"""End-to-end tracing over the real apps: the acceptance-level checks.

Runs the pingpong variants under an installed tracer and asserts the
timeline has the shape the exporter and analyses rely on: the expected
event kinds per stack, flat (non-overlapping) per-PE span tracks, and
causal chains that link completions back to the operations that caused
them.
"""

import pytest

from repro.apps.pingpong import charm_pingpong, ckdirect_pingpong, mpi_pingpong
from repro.charm.runtime import Runtime
from repro.network.params import ABE, SURVEYOR
from repro.projections.analysis import spans_by_track
from repro.projections.events import CAT_IDLE
from repro.projections.eventlog import EventLog, tracing


def _trace(fn, machine, nbytes=2000, iterations=10) -> EventLog:
    with tracing() as log:
        fn(machine, nbytes, iterations)
    return log


def _assert_flat_tracks(log: EventLog) -> None:
    for (run, pe), spans in spans_by_track(log).items():
        for a, b in zip(spans, spans[1:]):
            assert a.t1 <= b.t0 + 1e-12, (
                f"overlap on run{run}/pe{pe}: {a} vs {b}"
            )


def test_ckdirect_infiniband_timeline():
    log = _trace(ckdirect_pingpong, ABE)
    _assert_flat_tracks(log)
    names = {ev.name_key for ev in log.events}
    assert {"put", "put_complete", "poll_sweep", "poll_callback"} <= names
    # every poll_callback is caused by the put_complete of its channel
    index = log.by_eid()
    callbacks = list(log.select(name_key="poll_callback"))
    assert callbacks
    for cb in callbacks:
        assert cb.cause is not None
        assert index[cb.cause].name_key == "put_complete"


def test_ckdirect_put_chain_reaches_issuer():
    log = _trace(ckdirect_pingpong, ABE)
    index = log.by_eid()
    complete = next(log.select(name_key="put_complete"))
    put = index[complete.cause]
    assert put.name_key == "put"
    # the put was issued inside a traced handler on the sending PE
    assert put.cause is not None


def test_ckdirect_bgp_uses_direct_callbacks():
    log = _trace(ckdirect_pingpong, SURVEYOR)
    _assert_flat_tracks(log)
    names = {ev.name_key for ev in log.events}
    assert "direct_callback" in names
    assert "poll_callback" not in names  # BG/P bypasses the polling queue
    index = log.by_eid()
    for cb in log.select(name_key="direct_callback"):
        assert index[cb.cause].name_key == "put_complete"


def test_charm_message_chain():
    log = _trace(charm_pingpong, ABE)
    _assert_flat_tracks(log)
    index = log.by_eid()
    # send -> enqueue -> dispatch -> entry, each a causal hop
    entry = next(log.select(category="entry", name_key="pong"))
    dispatch = index[entry.cause]
    assert dispatch.name_key == "dispatch"
    enqueue = index[dispatch.cause]
    assert enqueue.name_key == "enqueue"
    send = index[enqueue.cause]
    assert send.name_key == "send"


def test_mpi_recv_caused_by_send():
    log = _trace(mpi_pingpong, ABE)
    _assert_flat_tracks(log)
    index = log.by_eid()
    recvs = list(log.select(name_key="mpi_recv"))
    assert recvs
    for recv in recvs:
        assert index[recv.cause].name_key == "mpi_send"


def test_idle_gaps_recorded():
    log = _trace(ckdirect_pingpong, ABE)
    assert any(ev.category == CAT_IDLE for ev in log.events)


def test_explicit_tracer_argument():
    """A log handed to ``tracing(log)`` is the one a new runtime
    attaches to; the ambient tracer is the only way in."""
    log = EventLog()
    with tracing(log):
        rt = Runtime(ABE, 2)
    assert rt.tracer is log
    assert log.runs and log.runs[0][1] is rt


def test_one_run_registered_per_runtime():
    with tracing() as log:
        ckdirect_pingpong(ABE, 1000, iterations=2)
        charm_pingpong(ABE, 1000, iterations=2)
    labels = [label for label, _o, _n in log.runs]
    assert len(labels) == 2
    assert all(label.startswith("charm:") for label in labels)
    runs_with_events = {ev.run for ev in log.events}
    assert runs_with_events == {0, 1}


def test_disabled_tracing_records_nothing():
    log = EventLog()
    # no tracer installed: runtimes run untraced
    rt = Runtime(ABE, 2)
    assert rt.tracer is None
    assert rt.fabric.tracer is None
    ckdirect_pingpong(ABE, 1000, iterations=5)
    assert len(log) == 0


def test_timeline_counts_match_trace_counters():
    """The two instrumentation layers agree exactly on pingpong."""
    with tracing() as log:
        ckdirect_pingpong(ABE, 2000, iterations=10)
    rt = log.runs[0][1]  # the registered owner is the Runtime
    tr = rt.trace
    n_puts = sum(1 for _ in log.select(name_key="put"))
    n_sweeps = sum(1 for _ in log.select(name_key="poll_sweep"))
    assert n_puts == tr.counter("ckdirect.puts")
    assert n_sweeps == tr.counter("pe.poll_sweeps")
