"""Unit tests for OpenAtom mini-app internals: PC operand geometry,
phase counters, Ortho flow, monitor behaviour."""

import numpy as np
import pytest

from repro import ABE, Runtime
from repro.apps.openatom import OpenAtomConfig, run_openatom
from repro.apps.openatom.driver import OpenAtomMonitor

SMALL = dict(nstates=8, nplanes=2, grain=4, points_per_plane=64,
             iterations=2, rest_rounds=1)


def _run(mode="ckd", **over):
    kw = dict(SMALL)
    kw.update(over)
    return run_openatom(ABE, 4, mode=mode, keep_runtime=True, **kw)


def test_pc_expected_inputs():
    r = _run(validate=True)
    pc_arr = next(a for a in r.runtime.arrays.values()
                  if not a.internal and len(a.dims) == 3)
    for pc in pc_arr.elements.values():
        assert pc.expected_inputs() == 2 * r.cfg.grain
        assert pc.got_inputs == 0  # reset after each multiply


def test_pc_operand_shapes():
    r = _run(validate=True)
    pc_arr = next(a for a in r.runtime.arrays.values()
                  if not a.internal and len(a.dims) == 3)
    cfg = r.cfg
    for pc in pc_arr.elements.values():
        assert pc.left.shape == (cfg.points_per_plane, cfg.grain)
        assert pc.right.shape == (cfg.points_per_plane, cfg.grain)


def test_gs_iterations_completed():
    r = _run()
    gs_arr = next(a for a in r.runtime.arrays.values()
                  if not a.internal and len(a.dims) == 2)
    for gs in gs_arr.elements.values():
        assert gs.it == SMALL["iterations"]


def test_multiplies_counted_via_trace():
    r = _run()
    cfg = r.cfg
    # each PC multiplies once per iteration; each multiply is a local
    # self-send entry ("the callback enqueues an entry method")
    pc_count = cfg.nblocks * cfg.nblocks * cfg.nplanes
    msgs = r.runtime.trace.counter("pe.messages_executed")
    assert msgs >= pc_count * cfg.iterations


def test_monitor_counts_barriers():
    r = _run()
    assert len(r.step_times) == SMALL["iterations"]


def test_mean_step_skips_first():
    m = OpenAtomMonitor.__new__(OpenAtomMonitor)
    from repro.apps.openatom.driver import OpenAtomResult

    res = OpenAtomResult("Abe", "msg", 4, OpenAtomConfig(), [1.0, 2.0, 3.0])
    assert res.mean_step_time == pytest.approx(2.5)
    res1 = OpenAtomResult("Abe", "msg", 4, OpenAtomConfig(), [4.0])
    assert res1.mean_step_time == 4.0


def test_msg_and_ckd_same_physics():
    """The damped points after N steps are version-independent."""
    def final_points(mode):
        r = _run(mode=mode, validate=True)
        gs_arr = next(a for a in r.runtime.arrays.values()
                      if not a.internal and len(a.dims) == 2)
        return np.stack([gs_arr.elements[(s, p)].points
                         for s in range(8) for p in range(2)])

    assert np.allclose(final_points("msg"), final_points("ckd"))


def test_rest_rounds_lengthen_full_step_only():
    short = _run(rest_rounds=1)
    long = _run(rest_rounds=6)
    assert long.mean_step_time > short.mean_step_time
    pc_short = _run(rest_rounds=1, pc_only=True)
    pc_long = _run(rest_rounds=6, pc_only=True)
    assert pc_long.mean_step_time == pytest.approx(pc_short.mean_step_time)
