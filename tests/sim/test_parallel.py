"""Tests for the sharded conservative-lookahead parallel engine.

The contract under test is the one the module docstring states: a run
at ``--shards N`` is bit-identical to ``--shards 1``, and runs that
cannot shard fall back to a serial engine rather than diverging.  The
legacy no-shards path produces the same *content* (timings,
application state) only where no later send reaches a receiver first:
it reserves receiver NICs in send order, the engine in head-arrival
order.  The scale where that order matters is pinned as an expected
failure.
"""

import numpy as np
import pytest

from repro.network.params import ABE, SURVEYOR
from repro.network.topology import (
    FatTree,
    TopologyError,
    shard_nodes,
    shard_of_node,
)
from repro.sim.parallel import (
    ParallelEngineError,
    _encode_args,
    encode_record,
)

# ---------------------------------------------------------------------------
# PE -> shard assignment
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_nodes,n_shards", [
    (1, 1), (4, 1), (4, 2), (4, 4), (7, 3), (10, 4), (5, 5),
])
def test_shard_nodes_partitions_contiguously(n_nodes, n_shards):
    topo = FatTree(n_nodes, 4)
    blocks = shard_nodes(topo, n_shards)
    assert len(blocks) == n_shards
    # contiguous, non-empty, covering every node exactly once
    assert blocks[0].start == 0
    assert blocks[-1].stop == n_nodes
    for a, b in zip(blocks, blocks[1:]):
        assert a.stop == b.start
    for blk in blocks:
        assert len(blk) >= 1
    # remainder goes to the leading shards: sizes are non-increasing
    sizes = [len(b) for b in blocks]
    assert sizes == sorted(sizes, reverse=True)


def test_shard_of_node_matches_shard_nodes():
    topo = FatTree(10, 4)
    for n_shards in (1, 2, 3, 4, 7, 10):
        blocks = shard_nodes(topo, n_shards)
        for s, blk in enumerate(blocks):
            for node in blk:
                assert shard_of_node(topo, node, n_shards) == s


def test_shard_nodes_rejects_bad_counts():
    topo = FatTree(4, 4)
    with pytest.raises(TopologyError):
        shard_nodes(topo, 0)
    with pytest.raises(TopologyError):
        shard_nodes(topo, 5)


# ---------------------------------------------------------------------------
# Wire codec guard rails
# ---------------------------------------------------------------------------


def _record(payload):
    return (1e-6, 8, 0, 0, 0.0, 0.0, 1024, payload)


def test_encode_record_rejects_bare_callback():
    with pytest.raises(ParallelEngineError):
        encode_record(_record(lambda: None))


def test_encode_record_rejects_local_handle_put():
    with pytest.raises(ParallelEngineError):
        encode_record(_record(("lput", object())))


def test_encode_record_rejects_unknown_kind():
    with pytest.raises(ParallelEngineError):
        encode_record(_record(("mystery", 1)))


def test_encode_args_rejects_host_callbacks():
    from repro.charm.callback import CkCallback

    with pytest.raises(ParallelEngineError):
        _encode_args((CkCallback.host(lambda _v: None),))


# ---------------------------------------------------------------------------
# Bit-identity: shards N == shards 1 == legacy content
# ---------------------------------------------------------------------------


def _stencil(shards, machine=ABE, **kw):
    from repro.apps.stencil.driver import gather_grid, run_stencil

    r = run_stencil(machine, 16, domain=(16, 16, 16), vr=2, iterations=3,
                    mode="ckd", validate=True, keep_runtime=True,
                    shards=shards, **kw)
    return r, gather_grid(r)


def test_stencil_bit_identical_across_shards():
    legacy, legacy_grid = _stencil(None)
    one, one_grid = _stencil(1)
    two, two_grid = _stencil(2)

    # legacy vs engine: same content (the engine adds admission wake
    # events, so events_processed legitimately differs)
    assert one.iter_times == legacy.iter_times
    assert np.array_equal(one_grid, legacy_grid)

    # engine baseline vs sharded: bit-identical, including event counts
    assert two.iter_times == one.iter_times
    assert two.events == one.events
    assert np.array_equal(two_grid, one_grid)


@pytest.mark.xfail(strict=True, reason="the serial path reserves "
                   "receiver NICs in send order, the engine in "
                   "head-arrival order")
def test_serial_matches_engine_where_sends_reorder():
    """On Abe at 64 PEs a later send reaches a receiver first, so the
    serial run differs from every explicit shard count."""
    from repro.apps.stencil.driver import run_stencil

    serial, one, two = (
        run_stencil(ABE, 64, mode="msg", iterations=2, shards=shards)
        for shards in (None, 1, 2)
    )
    assert two.iter_times == one.iter_times
    assert serial.iter_times == one.iter_times


def test_stencil_four_shards_on_torus():
    # Surveyor: 4 cores/node, so 16 PEs = 4 nodes = 4 real shards, and
    # the BG/P torus lookahead path is exercised.
    one, one_grid = _stencil(1, machine=SURVEYOR)
    four, four_grid = _stencil(4, machine=SURVEYOR)
    assert four.iter_times == one.iter_times
    assert four.events == one.events
    assert np.array_equal(four_grid, one_grid)


def test_matmul_bit_identical_across_shards():
    from repro.apps.matmul.driver import gather_c, run_matmul

    def run(shards):
        r = run_matmul(ABE, 16, N=32, c=2, iterations=3, mode="ckd",
                       validate=True, keep_runtime=True, shards=shards)
        return r, gather_c(r)

    one, c_one = run(1)
    two, c_two = run(2)
    assert two.iter_times == one.iter_times
    assert two.events == one.events
    assert np.array_equal(c_two, c_one)


def test_openatom_bit_identical_across_shards():
    from repro.apps.openatom.driver import abe_2cpn, run_openatom

    def run(shards):
        r = run_openatom(abe_2cpn(ABE), 16, mode="ckd", validate=True,
                         keep_runtime=True, shards=shards, nstates=8,
                         nplanes=2, grain=4, points_per_plane=64,
                         iterations=2, rest_rounds=2)
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
    four, s_four = run(4)  # 8 nodes at 2 cores/node: 4 real shards
    assert four.step_times == one.step_times
    assert four.events == one.events
    assert len(s_four) == len(s_one)
    for a, b in zip(s_four, s_one):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Serial fallbacks
# ---------------------------------------------------------------------------


def test_fault_runs_fall_back_and_stay_identical():
    from repro.apps.stencil.driver import run_stencil

    def run(shards):
        return run_stencil(ABE, 16, domain=(16, 16, 16), vr=2, iterations=3,
                           mode="ckd", validate=True, keep_runtime=True,
                           faults="drop", shards=shards)

    one = run(1)
    four = run(4)
    # the engine is never armed under fault injection …
    assert not one.runtime.fabric._engine
    assert not four.runtime.fabric._engine
    # … so any shard count produces the legacy faulted run exactly
    assert four.iter_times == one.iter_times
    assert four.events == one.events


def test_legacy_path_untouched_without_shards():
    from repro.apps.stencil.driver import run_stencil

    r = run_stencil(ABE, 16, domain=(8, 8, 8), vr=1, iterations=2,
                    mode="msg", keep_runtime=True)
    assert not r.runtime.fabric._engine
    assert r.runtime.shards is None


def test_shards_clamped_to_node_count():
    # 2 nodes on Abe at 16 PEs: requesting 8 shards must still match
    # the 1-shard engine baseline bit-for-bit (clamped to 2).
    eight, eight_grid = _stencil(8)
    one, one_grid = _stencil(1)
    assert eight.iter_times == one.iter_times
    assert eight.events == one.events
    assert np.array_equal(eight_grid, one_grid)


def test_runtime_rejects_bad_shard_count():
    from repro.charm import Runtime
    from repro.charm.runtime import CharmError

    with pytest.raises(CharmError):
        Runtime(ABE, 16, shards=0)
