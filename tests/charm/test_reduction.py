"""Unit tests for reductions and barriers over chare arrays."""

import numpy as np
import pytest

from repro import ABE, Chare, CkCallback, Runtime
from repro.charm import CustomMap, ReductionError


class Contributor(Chare):
    def __init__(self):
        self.results = []

    def go_sum(self, cb):
        self.contribute(float(self.thisIndex[0] + 1), "sum", cb)

    def go_barrier(self, cb):
        self.contribute(callback=cb)

    def go_max(self, cb):
        self.contribute(float(self.thisIndex[0]), "max", cb)

    def go_vector(self, cb):
        self.contribute(np.full(3, float(self.thisIndex[0])), "sum", cb)

    def catch(self, value):
        self.results.append(value)

    def go_bad_reducer(self, cb):
        self.contribute(1.0, "bogus", cb)

    def go_barrier_with_value(self, cb):
        self.contribute(1.0, None, cb)


def _run(n_elems=8, n_pes=4, method="go_sum", dims=None):
    rt = Runtime(ABE, n_pes=n_pes)
    arr = rt.create_array(Contributor, dims=dims or (n_elems,))
    results = []
    cb = CkCallback.host(results.append)
    arr.proxy.bcast(method, cb)
    rt.run()
    return rt, arr, results


def test_sum_reduction():
    _, _, results = _run(method="go_sum")
    assert results == [sum(range(1, 9))]


def test_max_reduction():
    _, _, results = _run(method="go_max")
    assert results == [7.0]


def test_vector_sum_reduction():
    _, _, results = _run(method="go_vector")
    assert np.array_equal(results[0], np.full(3, sum(range(8))))


def test_barrier_reduces_none():
    _, _, results = _run(method="go_barrier")
    assert results == [None]


def test_barrier_fires_once_per_epoch():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Contributor, dims=(8,))
    results = []
    cb = CkCallback.host(lambda v: results.append(rt.now))
    arr.proxy.bcast("go_barrier", cb)
    rt.run()
    arr.proxy.bcast("go_barrier", cb)
    rt.run()
    assert len(results) == 2
    assert results[1] > results[0]


def test_barrier_completes_only_after_all_contribute():
    """A straggler must hold the barrier open."""

    class Straggler(Chare):
        def go(self, cb):
            if self.thisIndex[0] == 3:
                self.charge(5e-3)  # long compute before contributing
            self.contribute(callback=cb)

    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Straggler, dims=(4,))
    t = []
    arr.proxy.bcast("go", CkCallback.host(lambda v: t.append(rt.now)))
    rt.run()
    assert t[0] >= 5e-3


def test_reduction_to_element_callback():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Contributor, dims=(8,))
    cb = CkCallback.send(arr, (0,), "catch")
    arr.proxy.bcast("go_sum", cb)
    rt.run()
    assert arr.element(0).results == [36.0]


def test_reduction_bcast_callback_reaches_everyone():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Contributor, dims=(8,))
    cb = CkCallback.bcast(arr, "catch")
    arr.proxy.bcast("go_sum", cb)
    rt.run()
    for e in arr.elements.values():
        assert e.results == [36.0]


def test_unknown_reducer_raises():
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(Contributor, dims=(2,))
    arr.proxy.bcast("go_bad_reducer", CkCallback.ignore())
    with pytest.raises(ReductionError):
        rt.run()


def test_barrier_with_value_raises():
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(Contributor, dims=(2,))
    arr.proxy.bcast("go_barrier_with_value", CkCallback.ignore())
    with pytest.raises(ReductionError):
        rt.run()


def test_mixed_reducers_in_one_epoch_raise():
    class Mixed(Chare):
        def go(self, cb):
            reducer = "sum" if self.thisIndex[0] % 2 == 0 else "max"
            self.contribute(1.0, reducer, cb)

    rt = Runtime(ABE, n_pes=1)
    arr = rt.create_array(Mixed, dims=(4,))
    arr.proxy.bcast("go", CkCallback.ignore())
    with pytest.raises(ReductionError):
        rt.run()


def test_reduction_on_sparse_home_pes():
    """Arrays hosted on a strict subset of PEs still reduce correctly
    (the tree spans only home PEs)."""
    rt = Runtime(ABE, n_pes=8)
    arr = rt.create_array(
        Contributor, dims=(4,),
        mapping=CustomMap(lambda idx, dims, n: [1, 3, 5, 7][idx[0]]),
    )
    results = []
    arr.proxy.bcast("go_sum", CkCallback.host(results.append))
    rt.run()
    assert results == [10.0]


def test_many_pes_reduction():
    rt = Runtime(ABE, n_pes=37)  # non-power-of-two tree
    arr = rt.create_array(Contributor, dims=(74,))
    results = []
    arr.proxy.bcast("go_sum", CkCallback.host(results.append))
    rt.run()
    assert results == [sum(range(1, 75))]


def test_pipelined_epochs():
    """Elements may enter epoch n+1 before epoch n completes."""

    class TwoEpoch(Chare):
        def go(self, cb1, cb2):
            self.contribute(1.0, "sum", cb1)
            self.contribute(2.0, "sum", cb2)

    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(TwoEpoch, dims=(8,))
    got = []
    arr.proxy.bcast(
        "go",
        CkCallback.host(lambda v: got.append(("first", v))),
        CkCallback.host(lambda v: got.append(("second", v))),
    )
    rt.run()
    assert ("first", 8.0) in got
    assert ("second", 16.0) in got
