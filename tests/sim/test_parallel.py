"""Tests for the sharded conservative-lookahead parallel engine.

The contract under test is the one the module docstring states: a run
at ``--shards N`` is bit-identical to ``--shards 1``, and faulted runs,
which cannot shard, are refused rather than run serially.  The
legacy no-shards path produces the same *content* (timings,
application state) only where no later send reaches a receiver first:
it reserves receiver NICs in send order, the engine in head-arrival
order.  The scale where that order matters is pinned as an expected
failure.
"""

from functools import partial

import numpy as np
import pytest

from repro import Chare, Runtime
from repro import ckdirect as ckd
from repro.charm import CustomMap
from repro.network.params import ABE, SURVEYOR
from repro.network.topology import FatTree, TopologyError, shard_nodes
from repro.sim.parallel import (
    ParallelEngineError,
    _encode_args,
    encode_record,
)
from repro.util.buffers import Buffer

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
    from repro.charm.callback import CkCallback
    from repro.ckdirect.api import _complete
    from repro.ckdirect.handle import CkDirectHandle

    rt = Runtime(ABE, 16)
    handle = CkDirectHandle(rt, rt.pes[8], Buffer.virtual(1024), -1.0,
                            CkCallback.ignore())
    with pytest.raises(ParallelEngineError, match="local-handle"):
        encode_record(_record(partial(_complete, handle)))


def test_encode_record_rejects_unknown_kind():
    with pytest.raises(ParallelEngineError, match="unknown"):
        encode_record(_record(partial(print, "mystery", 1)))


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


def _queue_stats(result):
    """Every PE's app and internal scheduler-queue statistics."""
    return [
        (q.enqueued, q.dequeues, q.max_occupancy, q.occupancy_sum)
        for pe in result.runtime.pes
        for q in (pe.queue, pe.internal_queue)
    ]


def test_stencil_bit_identical_across_shards():
    legacy, legacy_grid = _stencil(None)
    one, one_grid = _stencil(1)
    two, two_grid = _stencil(2)

    # legacy vs engine: same content (the engine adds admission wake
    # events, so events_processed legitimately differs)
    assert one.iter_times == legacy.iter_times
    assert np.array_equal(one_grid, legacy_grid)

    # engine baseline vs sharded: bit-identical, including event counts
    # and every PE's scheduler-queue statistics
    assert two.iter_times == one.iter_times
    assert two.events == one.events
    assert np.array_equal(two_grid, one_grid)
    assert _queue_stats(two) == _queue_stats(one)


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
    assert _queue_stats(four) == _queue_stats(one)


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
    assert _queue_stats(two) == _queue_stats(one)


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


class Relay(Chare):
    """Element 0 creates a channel; its handle travels to element 1 and
    back to element 2, which puts into it."""

    def __init__(self):
        self.recv = np.zeros(4)
        self.got = None

    def start(self):
        h = ckd.create_handle(self, Buffer(array=self.recv), -1.0,
                              self.on_data)
        self.proxy[1].bounce(h)

    def bounce(self, h):
        self.proxy[2].put_home(h)

    def put_home(self, h):
        ckd.assoc_local(self, h, Buffer(array=np.arange(1.0, 5.0)))
        ckd.put(h)

    def on_data(self, _cbdata):
        self.got = self.recv.copy()

    def shard_state(self):
        return {"got": self.got}


@pytest.mark.parametrize("shards", [1, 2])
def test_proxy_put_lands_on_the_real_handle_of_its_own_shard(shards):
    """At 2 shards element 2 holds a proxy of a handle its own shard
    owns; the put must land through the real handle."""
    # Abe has 8 cores per node: elements 0 and 2 share node 0.
    rt = Runtime(ABE, 16, shards=shards)
    arr = rt.create_array(Relay, dims=(3,),
                          mapping=CustomMap(lambda idx, d, n: (0, 15, 1)[idx[0]]))
    arr.proxy[0].start()
    rt.run()
    assert list(arr.elements[(0,)].got) == [1.0, 2.0, 3.0, 4.0]


# ---------------------------------------------------------------------------
# Serial fallbacks
# ---------------------------------------------------------------------------


def test_faulted_sharded_runs_are_refused(monkeypatch, capsys):
    """A faulted run is serial: an explicit shard count with fault
    injection or the reliability layer is refused, not ignored."""
    from repro.apps.stencil.driver import run_stencil
    from repro.charm.runtime import CharmError
    from repro.cli import main
    from repro.faults import FaultPlan, ReliabilityParams

    with pytest.raises(CharmError, match="shards=2"):
        Runtime(ABE, 16, fault_plan=FaultPlan.named("drop"), shards=2)
    with pytest.raises(CharmError, match="shards=1"):
        Runtime(ABE, 16, reliability=ReliabilityParams(), shards=1)
    monkeypatch.setenv("REPRO_SHARDS", "2")
    with pytest.raises(CharmError, match="shards=2"):
        run_stencil(ABE, 16, domain=(8, 8, 8), iterations=1, mode="ckd",
                    faults="drop")
    # The CLI refuses the chaos fabric matrix before running a point.
    assert main(["chaos", "--faults", "drop"]) == 2
    monkeypatch.delenv("REPRO_SHARDS")
    assert main(["chaos", "--faults", "drop", "--shards", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("error: the chaos fabric matrix runs serially")
               for line in lines)


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
