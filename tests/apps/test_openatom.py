"""Tests for the OpenAtom PairCalculator mini-app."""

import numpy as np
import pytest

from repro import ABE, SURVEYOR
from repro.apps.openatom import (
    OpenAtomConfig,
    abe_2cpn,
    run_openatom,
)

SMALL = dict(nstates=16, nplanes=2, grain=4, points_per_plane=128,
             iterations=2, rest_rounds=2)


def test_config_validation():
    with pytest.raises(ValueError):
        OpenAtomConfig(nstates=10, grain=3)
    with pytest.raises(ValueError):
        OpenAtomConfig(polling="sometimes")


def test_config_derived_quantities():
    cfg = OpenAtomConfig(nstates=64, nplanes=8, grain=8, points_per_plane=2048)
    assert cfg.nblocks == 8
    assert cfg.points_bytes == 2048 * 16


def test_abe_2cpn():
    m = abe_2cpn(ABE)
    assert m.cores_per_node == 2
    assert abe_2cpn(SURVEYOR).cores_per_node == SURVEYOR.cores_per_node


@pytest.mark.parametrize("machine", [ABE, SURVEYOR], ids=["ib", "bgp"])
@pytest.mark.parametrize("mode", ["msg", "ckd"])
def test_runs_to_completion(machine, mode):
    r = run_openatom(machine, 8, mode=mode, **SMALL)
    assert len(r.step_times) == 2
    assert all(t > 0 for t in r.step_times)


@pytest.mark.parametrize("mode", ["msg", "ckd"])
def test_validation_mode_lands_points_in_operands(mode):
    """Every PC operand column must equal the owning GS's points after
    the forward phase (checked at end of run: points were damped once
    per step after the last put, so compare against the value at put
    time — reconstruct by undoing the final correction)."""
    r = run_openatom(ABE, 4, mode=mode, validate=True, keep_runtime=True,
                     nstates=8, nplanes=2, grain=4, points_per_plane=64,
                     iterations=1, rest_rounds=0)
    rt = r.runtime
    arrays = [a for a in rt.arrays.values() if not a.internal]
    gs_arr = next(a for a in arrays if len(a.dims) == 2 and a.dims[0] == 8)
    pc_arr = next(a for a in arrays if len(a.dims) == 3)
    cfg = r.cfg
    from repro.apps.openatom.config import OPENATOM_OOB

    for (i, j, p), pc in pc_arr.elements.items():
        for off in range(cfg.grain):
            left_state = i * cfg.grain + off
            gs = gs_arr.elements[(left_state, p)]
            # gs.points was updated once after the PC consumed them:
            # points_now = 0.5 * points_at_put + 0.5
            reconstructed = (gs.points - 0.5) * 2.0
            # all but the trailing element hold the delivered points;
            # the trailing slot was re-stamped by CkDirect_readyMark
            # after consumption (the §2.1 contract: the armed buffer's
            # final double word belongs to the RTS)
            assert np.allclose(pc.left[:-1, off], reconstructed[:-1]), (i, j, p, off)
            if mode == "ckd":
                assert pc.left[-1, off] == OPENATOM_OOB
            else:
                assert pc.left[-1, off] == pytest.approx(reconstructed[-1])


def test_pc_only_faster_than_full():
    full = run_openatom(ABE, 8, mode="msg", **SMALL)
    pc = run_openatom(ABE, 8, mode="msg", pc_only=True, **SMALL)
    assert pc.mean_step_time < full.mean_step_time


def test_naive_polling_slower_on_ib():
    kw = dict(nstates=32, nplanes=4, grain=8, points_per_plane=512,
              iterations=2, rest_rounds=12)
    ph = run_openatom(abe_2cpn(ABE), 16, mode="ckd", polling="phased", **kw)
    nv = run_openatom(abe_2cpn(ABE), 16, mode="ckd", polling="naive", **kw)
    assert nv.mean_step_time > ph.mean_step_time


def test_polling_mode_irrelevant_on_bgp():
    """BG/P never polls; both disciplines must time identically."""
    ph = run_openatom(SURVEYOR, 8, mode="ckd", polling="phased", **SMALL)
    nv = run_openatom(SURVEYOR, 8, mode="ckd", polling="naive", **SMALL)
    assert ph.mean_step_time == pytest.approx(nv.mean_step_time)


def test_channel_count_matches_formula():
    r = run_openatom(ABE, 4, mode="ckd", keep_runtime=True, **SMALL)
    cfg = r.cfg
    # every (state, plane) GS chare feeds one row-side and one
    # column-side PC block per state block: 2 x nblocks channels each
    gs_chares = cfg.nstates * cfg.nplanes
    assert (
        r.runtime.trace.counter("ckdirect.handles_created")
        == 2 * cfg.nblocks * gs_chares
    )


def test_invalid_mode():
    with pytest.raises(ValueError, match="mode"):
        run_openatom(ABE, 2, mode="huh", **SMALL)


def test_ckd_full_variant_runs_and_improves():
    """The ckd-full mode (backward path channelized too — the paper's
    §5.2 anticipation) runs correctly and is at least as fast as
    forward-only CkDirect."""
    kw = dict(nstates=16, nplanes=2, grain=4, points_per_plane=512,
              iterations=2, rest_rounds=4)
    fwd = run_openatom(abe_2cpn(ABE), 8, mode="ckd", **kw)
    full = run_openatom(abe_2cpn(ABE), 8, mode="ckd-full", **kw)
    assert full.mean_step_time <= fwd.mean_step_time * 1.01


def test_ckd_full_validates():
    r = run_openatom(ABE, 4, mode="ckd-full", validate=True,
                     nstates=8, nplanes=2, grain=4, points_per_plane=64,
                     iterations=2, rest_rounds=0)
    assert len(r.step_times) == 2
