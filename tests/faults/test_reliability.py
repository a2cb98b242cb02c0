"""Protocol tests for the CkDirect reliability layer.

Each test builds a two-chare cross-node channel on Abe and drives it
under a *certain* fault (probability 1.0), so the recovery path taken
is deterministic and each counter can be pinned exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro import ABE, Runtime
from repro import ckdirect as ckd
from repro.faults import FaultPlan, FaultRule, ReliabilityParams
from repro.projections.eventlog import tracing

from tests.ckdirect.channel_helpers import CROSS, Endpoint

#: A watchdog that scans fast and escalates quickly, with retransmit
#: timeouts parked far away so the watchdog path is the only recovery.
WATCHDOG_ONLY = ReliabilityParams(
    rto_initial=10.0, max_attempts=1,
    watchdog_period=100e-6, watchdog_timeout=300e-6,
)

#: Fast retransmits, watchdog parked far away: the RTO path is the
#: only recovery.
RTO_ONLY = ReliabilityParams(
    rto_initial=50e-6, rto_backoff=2.0, max_attempts=3,
    watchdog_period=1.0, watchdog_timeout=1.0,
)


def _plan(scope, seed=3, **rule):
    return FaultPlan(profile="test", seed=seed,
                     rules=((scope, FaultRule(**rule)),))


def _wired(plan, params):
    """Element 0 (PE 0) receives from element 1 (PE 15, the other node)."""
    rt = Runtime(ABE, n_pes=2 * ABE.cores_per_node,
                 fault_plan=plan, reliability=params)
    arr = rt.create_array(Endpoint, dims=(2,), mapping=CROSS)
    recv, send = arr.element(0), arr.element(1)
    handle = recv.make_handle()
    ckd.assoc_local(send, handle, send.send_buf)
    return rt, arr, recv, send, handle


def test_clean_put_pays_one_ack_and_no_retries():
    rt, arr, recv, send, handle = _wired(FaultPlan.named("none"),
                                         ReliabilityParams())
    arr.proxy[1].do_put(handle)
    rt.run()
    assert np.array_equal(recv.recv_arr, send.send_arr)
    assert len(recv.fired) == 1
    assert handle.acked_seq == handle.put_seq == 1
    assert not rt._reliable_inflight
    t = rt.trace
    assert t.counter("ckdirect.acks_sent") == 1
    assert t.counter("ckdirect.acks_received") == 1
    assert t.counter("ckdirect.retransmits") == 0
    assert t.counter("ckdirect.watchdog_fires") == 0


def test_reliability_without_a_fault_plan_still_acks():
    """``reliability=`` alone arms the protocol on a perfect fabric."""
    rt, arr, recv, send, handle = _wired(None, ReliabilityParams())
    assert rt.fault_injector is None
    arr.proxy[1].do_put(handle)
    rt.run()
    assert np.array_equal(recv.recv_arr, send.send_arr)
    assert rt.trace.counter("ckdirect.acks_received") == 1


def test_torn_sentinel_is_invisible_then_recovered_by_watchdog():
    """The §2.1 sharp edge: payload lands, sentinel word does not, so
    the poll sweep can never see it.  The watchdog repairs the landing
    locally — exactly once per put."""
    rt, arr, recv, send, handle = _wired(_plan("put", torn=1.0),
                                         WATCHDOG_ONLY)
    for it in range(1, 3):
        send.send_arr[:] = float(it)
        arr.proxy[1].do_put(handle)
        rt.run()
        assert np.all(recv.recv_arr == float(it))
        assert len(recv.fired) == it
        t = rt.trace
        assert t.counter("ckdirect.torn_recoveries") == it
        assert t.counter("ckdirect.watchdog_fires") == it
        assert t.counter("ckdirect.retransmits") == 0
        assert not handle.torn_landed
        arr.proxy[0].do_ready(handle)
        rt.run()


def test_watchdog_fires_exactly_once_per_stalled_put():
    """A fully lost put escalates through the watchdog a single time
    (the ``watchdog_fired_seq`` filter), degrades the handle, and the
    fallback still delivers the data."""
    rt, arr, recv, send, handle = _wired(_plan("put", drop=1.0),
                                         WATCHDOG_ONLY)
    arr.proxy[1].do_put(handle)
    rt.run()
    assert np.array_equal(recv.recv_arr, send.send_arr)
    assert len(recv.fired) == 1
    assert handle.degraded
    t = rt.trace
    assert t.counter("ckdirect.watchdog_fires") == 1
    assert rt.watchdog.fires == 1
    assert t.counter("ckdirect.degraded_handles") == 1
    assert t.counter("ckdirect.fallback_puts") == 1

    # Later puts skip straight to the fallback path: no new stall, no
    # further watchdog escalation.
    arr.proxy[0].do_ready(handle)
    rt.run()
    send.send_arr[:] = 9.0
    arr.proxy[1].do_put(handle)
    rt.run()
    assert np.all(recv.recv_arr == 9.0)
    assert rt.watchdog.fires == 1
    assert t.counter("ckdirect.fallback_puts") == 2


def test_watchdog_pull_forward_leaves_the_original_timer_silent():
    """The watchdog pulls the first timeout forward (attempt 2) and
    leaves the original 10 s timer behind.  Only the newest attempt's
    timer may act: the put retransmits once from the watchdog and once
    when attempt 2's timer expires, then degrades when attempt 3's
    expires.  Had the superseded 10 s timer acted, the second
    retransmit would come at 10 s and the handle would degrade 10 s
    early."""
    params = dataclasses.replace(WATCHDOG_ONLY, max_attempts=3)
    with tracing() as log:
        rt, arr, recv, send, handle = _wired(_plan("put", drop=1.0), params)
        arr.proxy[1].do_put(handle)
        rt.run()
    assert np.array_equal(recv.recv_arr, send.send_arr)
    assert handle.degraded
    t = rt.trace
    assert t.counter("ckdirect.watchdog_fires") == 1
    assert t.counter("ckdirect.retransmits") == 2
    assert t.counter("ckdirect.degraded_handles") == 1
    assert t.counter("ckdirect.fallback_puts") == 1

    def times(kind):
        return [e.t0 for e in log.events if e.name.startswith(kind + ":")]

    (watchdog,) = times("watchdog")
    assert times("retransmit") == [watchdog, watchdog + params.rto(2)]
    assert times("degrade") == [watchdog + params.rto(2) + params.rto(3)]


def test_watchdog_leaves_a_degraded_handles_fallback_to_the_charm_path():
    """A degraded handle's put travels the charm path only.  When that
    path stalls past the watchdog timeout, the watchdog escalates the
    put but must not restart RDMA attempts on the handle."""
    plan = FaultPlan(profile="test", seed=3, rules=(
        ("put", FaultRule(drop=1.0)),
        ("charm", FaultRule(stall=1.0, stall_time=1e-3)),
    ))
    rt, arr, recv, send, handle = _wired(plan, WATCHDOG_ONLY)
    arr.proxy[1].do_put(handle)
    rt.run()
    assert handle.degraded
    arr.proxy[0].do_ready(handle)
    rt.run()
    send.send_arr[:] = 9.0
    arr.proxy[1].do_put(handle)
    rt.run()
    assert np.all(recv.recv_arr == 9.0)
    assert rt.watchdog.fires == 2
    assert handle.attempt == 0
    assert rt.trace.counter("ckdirect.fallback_puts") == 2


def test_retry_gives_up_after_max_attempts_then_falls_back():
    """Every RDMA attempt is dropped: the sender retries through the
    exponential backoff, gives up after ``max_attempts``, and degrades
    to the two-copy charm path — which delivers."""
    rt, arr, recv, send, handle = _wired(_plan("put", drop=1.0), RTO_ONLY)
    arr.proxy[1].do_put(handle)
    rt.run()
    assert np.array_equal(recv.recv_arr, send.send_arr)
    assert len(recv.fired) == 1
    assert handle.degraded
    t = rt.trace
    # 3 attempts = the original + 2 retransmits, then the fallback.
    assert t.counter("ckdirect.retransmits") == RTO_ONLY.max_attempts - 1
    assert t.counter("ckdirect.degraded_handles") == 1
    assert t.counter("ckdirect.fallback_puts") == 1
    assert t.counter("ckdirect.watchdog_fires") == 0


def test_duplicate_delivery_is_discarded_and_reacked():
    """A duplicated delivery must not land its payload twice (the
    buffer may already belong to a later phase); the receiver discards
    it and only re-acks."""
    rt, arr, recv, send, handle = _wired(_plan("put", dup=1.0),
                                         ReliabilityParams())
    arr.proxy[1].do_put(handle)
    rt.run()
    assert np.array_equal(recv.recv_arr, send.send_arr)
    assert len(recv.fired) == 1
    assert handle.puts_completed == 1
    t = rt.trace
    assert t.counter("ckdirect.dup_discards") == 1
    assert t.counter("ckdirect.acks_sent") == 2
    assert t.counter("ckdirect.acks_received") == 1  # dup ack filtered
