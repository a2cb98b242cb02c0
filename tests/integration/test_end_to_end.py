"""End-to-end integration tests crossing every layer at once."""

import numpy as np
import pytest

from repro import ABE, SURVEYOR
from repro.apps.matmul import gather_c, reference_c, run_matmul
from repro.apps.openatom import abe_2cpn, run_openatom
from repro.apps.pingpong import charm_pingpong, ckdirect_pingpong
from repro.apps.stencil import gather_grid, jacobi_reference, run_stencil
from tests.apps.test_stencil_validation import _reference_initial


@pytest.mark.parametrize("machine", [ABE, SURVEYOR], ids=["ib", "bgp"])
def test_full_stack_stencil_speedup_and_correctness(machine):
    """One configuration, both versions: identical numerics, CkDirect
    faster — the paper's whole claim in one test."""
    dom = (16, 16, 8)
    msg = run_stencil(machine, 8, dom, vr=2, iterations=3, mode="msg",
                      validate=True, keep_runtime=True)
    ckd = run_stencil(machine, 8, dom, vr=2, iterations=3, mode="ckd",
                      validate=True, keep_runtime=True)
    ref = jacobi_reference(_reference_initial(dom, msg.grid), 3)
    assert np.array_equal(gather_grid(msg), ref)
    assert np.array_equal(gather_grid(ckd), ref)
    assert ckd.mean_iter_time <= msg.mean_iter_time


def test_full_stack_matmul(ib_only=True):
    msg = run_matmul(ABE, 8, N=64, c=4, iterations=2, mode="msg",
                     validate=True, keep_runtime=True)
    ckd = run_matmul(ABE, 8, N=64, c=4, iterations=2, mode="ckd",
                     validate=True, keep_runtime=True)
    ref = reference_c(msg)
    assert np.allclose(gather_c(msg), ref)
    assert np.allclose(gather_c(ckd), ref)
    assert ckd.mean_iter_time < msg.mean_iter_time


def test_openatom_ckd_beats_msg_when_tuned():
    kw = dict(nstates=32, nplanes=4, grain=8, points_per_plane=1024,
              iterations=2)
    m = run_openatom(abe_2cpn(ABE), 16, mode="msg", **kw)
    c = run_openatom(abe_2cpn(ABE), 16, mode="ckd", polling="phased", **kw)
    assert c.mean_step_time < m.mean_step_time


def test_pingpong_consistency_across_runs():
    a = ckdirect_pingpong(ABE, 5000, 30).rtt
    b = ckdirect_pingpong(ABE, 5000, 30).rtt
    assert a == b


def test_trace_counters_consistent():
    r = run_stencil(ABE, 4, (8, 8, 8), vr=2, iterations=2, mode="ckd",
                    keep_runtime=True)
    t = r.runtime.trace
    # every put was detected exactly once
    assert t.counter("ckdirect.puts") == t.counter(
        "pe.poll_detections"
    ) + t.counter("pe.direct_completions")
    # every sent message was executed
    assert t.counter("charm.msgs_sent") == t.counter("pe.messages_executed")


def test_no_pending_events_after_run():
    r = run_stencil(ABE, 4, (8, 8, 8), vr=2, iterations=2, mode="msg",
                    keep_runtime=True)
    sim = r.runtime.sim
    # pending is implementation-agnostic — valid for heap, calendar
    # and compiled.
    assert sim.pending == 0
