"""Tests for the Time Warp optimistic parallel engine.

The contract under test: ``--engine optimistic --shards N`` is
bit-identical to ``--shards 1`` (state, timings, event counts) on
every app and every event-queue implementation, rollbacks actually
happen (the speculation is real, not degenerate), checkpoints restore
exactly (a hypothesis property over capture points), and runs that
cannot shard fall back serially just like the conservative engine.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.charm import Runtime
from repro.config import ENGINE_CHOICES
from repro.network.params import ABE, SURVEYOR
from repro.sim import timewarp
from repro.sim.parallel import ParallelEngineError
from repro.sim.timewarp import STAT_KEYS, ShardCheckpoint


def test_engine_choices_are_stable():
    assert ENGINE_CHOICES == ("conservative", "optimistic")


# ---------------------------------------------------------------------------
# Bit-identity: optimistic shards N == shards 1
# ---------------------------------------------------------------------------


def _stencil(shards, engine=None, machine=ABE, **kw):
    from repro.apps.stencil.driver import gather_grid, run_stencil

    r = run_stencil(machine, 16, domain=(16, 16, 16), vr=2, iterations=3,
                    mode="ckd", validate=True, keep_runtime=True,
                    shards=shards, engine=engine, **kw)
    return r, gather_grid(r)


def _assert_stats_sane(stats):
    assert set(stats) == set(STAT_KEYS)
    assert all(v >= 0 for v in stats.values())
    assert stats["gvt_rounds"] >= 1
    assert stats["antis_received"] <= stats["antis"]


def test_stencil_optimistic_bit_identical():
    one, one_grid = _stencil(1)
    two, two_grid = _stencil(2, engine="optimistic")
    assert two.iter_times == one.iter_times
    assert two.events == one.events
    assert two.runtime.sim.now == one.runtime.sim.now
    assert np.array_equal(two_grid, one_grid)
    _assert_stats_sane(two.runtime.timewarp_stats)


def test_stencil_optimistic_four_shards_on_torus_with_rollbacks(monkeypatch):
    # Surveyor: 4 cores/node, so 16 PEs = 4 real shards.  Run-to-drain
    # speculation (the adaptive default would throttle to the
    # conservative window on cross-shard traffic) makes stragglers —
    # and hence rollbacks and anti-messages — certain: speculation must
    # be exercised, not just tolerated, and repair must still end
    # bit-identical.
    monkeypatch.setattr(timewarp, "HORIZON", float("inf"))
    one, one_grid = _stencil(1, machine=SURVEYOR)
    four, four_grid = _stencil(4, engine="optimistic", machine=SURVEYOR)
    assert four.iter_times == one.iter_times
    assert four.events == one.events
    assert np.array_equal(four_grid, one_grid)
    stats = four.runtime.timewarp_stats
    _assert_stats_sane(stats)
    assert stats["rollbacks"] >= 1
    assert stats["events_rolled_back"] >= 1
    assert stats["checkpoints"] >= 1


def test_stencil_optimistic_anti_messages_fire(monkeypatch):
    # The CkDirect variant on the torus sends speculative cross-shard
    # puts that a straggler later invalidates: the divergent sends must
    # be cancelled via anti-messages, and received ones dead-marked.
    # Unbounded speculation makes the divergence certain (the adaptive
    # default may avoid it entirely — that is its job).
    monkeypatch.setattr(timewarp, "HORIZON", float("inf"))
    four, _ = _stencil(4, engine="optimistic", machine=SURVEYOR)
    stats = four.runtime.timewarp_stats
    assert stats["antis"] >= 1
    assert stats["antis_received"] >= 1
    assert stats["dedups"] >= 1


@pytest.mark.parametrize("eventq", ["heap", "calendar", "compiled"])
def test_stencil_optimistic_bit_identical_per_eventq(eventq, monkeypatch):
    if eventq == "compiled":
        pytest.importorskip("repro.sim._ceventq")
    monkeypatch.setenv("REPRO_EVENTQ", eventq)
    one, one_grid = _stencil(1, machine=SURVEYOR)
    four, four_grid = _stencil(4, engine="optimistic", machine=SURVEYOR)
    assert four.iter_times == one.iter_times
    assert four.events == one.events
    assert np.array_equal(four_grid, one_grid)


def test_stencil_optimistic_horizon_and_cadence_knobs(monkeypatch):
    one, one_grid = _stencil(1, machine=SURVEYOR)
    monkeypatch.setattr(timewarp, "HORIZON", 4.0)
    bounded, bounded_grid = _stencil(4, engine="optimistic",
                                     machine=SURVEYOR)
    monkeypatch.setattr(timewarp, "HORIZON", None)
    monkeypatch.setattr(timewarp, "CP_EVENTS", 200)
    fine, fine_grid = _stencil(4, engine="optimistic", machine=SURVEYOR)
    assert bounded.events == one.events
    assert bounded.iter_times == one.iter_times
    assert np.array_equal(bounded_grid, one_grid)
    assert fine.events == one.events
    assert fine.iter_times == one.iter_times
    assert np.array_equal(fine_grid, one_grid)
    # both modes really checkpoint (fixed horizon and adaptive default
    # both follow the event-count cadence)
    assert bounded.runtime.timewarp_stats["checkpoints"] >= 1
    assert fine.runtime.timewarp_stats["checkpoints"] >= 1


def test_matmul_optimistic_bit_identical():
    from repro.apps.matmul.driver import gather_c, run_matmul

    def run(shards, engine=None):
        r = run_matmul(ABE, 16, N=32, c=2, iterations=3, mode="ckd",
                       validate=True, keep_runtime=True, shards=shards,
                       engine=engine)
        return r, gather_c(r)

    one, c_one = run(1)
    two, c_two = run(2, engine="optimistic")
    assert two.iter_times == one.iter_times
    assert two.events == one.events
    assert np.array_equal(c_two, c_one)
    _assert_stats_sane(two.runtime.timewarp_stats)


def test_openatom_optimistic_bit_identical():
    from repro.apps.openatom.driver import abe_2cpn, run_openatom

    def run(shards, engine=None):
        r = run_openatom(abe_2cpn(ABE), 16, mode="ckd", validate=True,
                         keep_runtime=True, shards=shards, engine=engine,
                         nstates=8, nplanes=2, grain=4,
                         points_per_plane=64, iterations=2, rest_rounds=2)
        state = []
        for arr in r.runtime.arrays.values():
            if arr.internal:
                continue
            for idx in sorted(arr.elements):
                elem = arr.elements[idx]
                if getattr(elem, "points", None) is not None:
                    state.append(elem.points)
                elif getattr(elem, "left", None) is not None:
                    state.extend([elem.left, elem.right])
        return r, state

    one, s_one = run(1)
    four, s_four = run(4, engine="optimistic")
    assert four.step_times == one.step_times
    assert four.events == one.events
    assert len(s_four) == len(s_one)
    for a, b in zip(s_four, s_one):
        assert np.array_equal(a, b)
    _assert_stats_sane(four.runtime.timewarp_stats)


# ---------------------------------------------------------------------------
# Serial fallbacks
# ---------------------------------------------------------------------------


def test_optimistic_single_shard_is_serial():
    one, _ = _stencil(1, engine="optimistic")
    stats = one.runtime.timewarp_stats
    assert stats == {k: 0 for k in STAT_KEYS}
    assert one.runtime.shard_cpu_times is not None
    assert len(one.runtime.shard_cpu_times) == 1


def test_optimistic_fault_runs_fall_back_and_stay_identical():
    from repro.apps.stencil.driver import run_stencil

    def run(shards, engine=None):
        return run_stencil(ABE, 16, domain=(16, 16, 16), vr=2,
                           iterations=3, mode="ckd", validate=True,
                           keep_runtime=True, faults="drop",
                           shards=shards, engine=engine)

    one = run(1)
    four = run(4, engine="optimistic")
    # fault injection disables the parallel engine wholesale: the run
    # keeps the legacy serial engine regardless of the requested mode
    assert not one.runtime.fabric._engine
    assert not four.runtime.fabric._engine
    assert four.iter_times == one.iter_times
    assert four.events == one.events


def test_runtime_rejects_bad_engine():
    from repro.charm.runtime import CharmError

    with pytest.raises((ParallelEngineError, CharmError)):
        Runtime(ABE, 16, shards=2, engine="speculative")


def test_tw_static_reduced_state_saving():
    # Attributes named in tw_static are skipped by the snapshot and
    # left alone by the restore: neither rolled back nor deleted.
    from repro.charm.chare import Chare

    class C(Chare):
        tw_static = frozenset({"wiring"})

    c = C.__new__(C)
    c.wiring = [1, 2, 3]
    c.counter = 7
    snap = c.tw_checkpoint()
    assert "wiring" not in {name for name, _ in snap}
    c.wiring.append(4)       # static: survives the restore
    c.counter = 99           # dynamic: rolled back
    c.speculative = "new"    # dynamic, post-snapshot: deleted
    c.tw_restore(snap)
    assert c.wiring == [1, 2, 3, 4]
    assert c.counter == 7
    assert not hasattr(c, "speculative")


# ---------------------------------------------------------------------------
# Checkpoint -> restore round-trips (hypothesis property)
# ---------------------------------------------------------------------------


def _build_stencil(seed):
    from repro.apps.stencil.base import IterationMonitor
    from repro.apps.stencil.decomp import choose_grid
    from repro.apps.stencil.jacobi_ckd import JacobiCkd

    rt = Runtime(ABE, 16)
    domain, iters = (16, 16, 16), 3
    grid = choose_grid(domain, 32)
    monitor = IterationMonitor(rt, None, iters)
    arr = rt.create_array(
        JacobiCkd, dims=grid,
        ctor_args=(domain, grid, iters, True, seed, monitor),
    )
    monitor.proxy = arr.proxy
    arr.proxy.bcast("setup")

    def digest():
        blocks = [arr.elements[i].interior() for i in sorted(arr.elements)]
        return (rt.sim.now, rt.sim.events_processed, tuple(monitor.marks),
                b"".join(b.tobytes() for b in blocks))

    return rt, digest


def _build_matmul(seed):
    from repro.apps.matmul.decomp3d import MatMulSpec
    from repro.apps.matmul.matmul_ckd import MatMulCkd
    from repro.apps.stencil.base import IterationMonitor

    rt = Runtime(ABE, 16)
    spec, iters = MatMulSpec(32, 2), 3
    monitor = IterationMonitor(rt, None, iters)
    arr = rt.create_array(
        MatMulCkd, dims=(2, 2, 2),
        ctor_args=(spec, iters, True, seed, monitor),
    )
    monitor.proxy = arr.proxy
    arr.proxy.bcast("setup")

    def digest():
        blocks = [
            arr.elements[i].C.tobytes()
            for i in sorted(arr.elements) if arr.elements[i].C is not None
        ]
        return (rt.sim.now, rt.sim.events_processed, tuple(monitor.marks),
                b"".join(blocks))

    return rt, digest


def _build_openatom(seed):
    from repro.apps.openatom.config import OpenAtomConfig
    from repro.apps.openatom.driver import OpenAtomMonitor, abe_2cpn
    from repro.apps.openatom.paircalc import Ortho
    from repro.apps.openatom.variants import GSpaceCkd, PairCalcCkd

    rt = Runtime(abe_2cpn(ABE), 16)
    cfg = OpenAtomConfig(nstates=8, nplanes=2, grain=4,
                         points_per_plane=64, iterations=2, rest_rounds=2)
    monitor = OpenAtomMonitor(rt, cfg.iterations)
    gs = rt.create_array(GSpaceCkd, dims=(cfg.nstates, cfg.nplanes),
                         ctor_args=(cfg, monitor))
    pc = rt.create_array(PairCalcCkd,
                         dims=(cfg.nblocks, cfg.nblocks, cfg.nplanes),
                         ctor_args=(cfg, monitor))
    ortho = rt.create_array(Ortho, dims=(1,), ctor_args=(cfg, pc.id))
    monitor.gs_proxy = gs.proxy
    monitor.pc_proxy = pc.proxy
    for elem in gs.elements.values():
        elem._pc_array_id = pc.id
    for elem in pc.elements.values():
        elem._gs_array_id = gs.id
        elem._ortho_array_id = ortho.id
    pc.proxy.bcast("setup")
    gs.proxy.bcast("setup")

    def digest():
        state = []
        for arr in (gs, pc):
            for idx in sorted(arr.elements):
                elem = arr.elements[idx]
                if getattr(elem, "points", None) is not None:
                    state.append(elem.points.tobytes())
                elif getattr(elem, "left", None) is not None:
                    state.append(elem.left.tobytes())
                    state.append(elem.right.tobytes())
        return (rt.sim.now, rt.sim.events_processed, tuple(monitor.marks),
                b"".join(state))

    return rt, digest


_BUILDERS = {
    "stencil": _build_stencil,
    "matmul": _build_matmul,
    "openatom": _build_openatom,
}


@settings(max_examples=8, deadline=None)
@given(app=st.sampled_from(sorted(_BUILDERS)),
       frac=st.floats(0.05, 0.95),
       seed=st.integers(0, 3))
def test_checkpoint_restore_replay_is_bit_exact(app, frac, seed):
    """Restore-then-replay from any mid-run capture point reproduces
    the uninterrupted run's final digest exactly — the property every
    rollback in the optimistic engine rests on."""
    build = _BUILDERS[app]

    # Reference: run to completion untouched.
    rt, digest = build(seed)
    rt.sim.run()
    want = digest()
    total = rt.sim.events_processed

    # Capture mid-run, finish, rewind, finish again.
    rt, digest = build(seed)
    rt.sim.run(max_events=max(1, int(total * frac)))
    owned = frozenset(range(rt.n_pes))
    cp = ShardCheckpoint.capture(rt, owned, 0, 0)
    rt.sim.run()
    first = digest()
    assert first == want

    cp.restore(rt)
    rt.sim.run()
    assert digest() == want


def test_checkpoint_restore_midflight_handles_and_reductions():
    """A capture taken between barriers (reductions in flight, CkDirect
    puts pending) restores the handle registry and reduction nodes so a
    replay is indistinguishable from the first pass."""
    rt, digest = _build_stencil(20090922)
    rt.sim.run(max_events=700)  # mid-iteration: traffic in flight
    owned = frozenset(range(rt.n_pes))
    cp = ShardCheckpoint.capture(rt, owned, 0, 0)
    handles_before = dict(rt._handles)
    rt.sim.run()
    want = digest()
    cp.restore(rt)
    assert rt._handles == handles_before
    rt.sim.run()
    assert digest() == want
