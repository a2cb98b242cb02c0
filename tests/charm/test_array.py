"""Unit tests for ChareArray indexing, proxies, and the spanning tree."""

import numpy as np
import pytest

from repro import ABE, Chare, Runtime
from repro.charm import CustomMap
from repro.charm.mapping import MappingError


class E(Chare):
    def __init__(self):
        self.hits = []

    def hit(self, *a):
        self.hits.append(a)


def test_index_normalization():
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(E, dims=(4,))
    assert arr.normalize_index(2) == (2,)
    assert arr.normalize_index((3,)) == (3,)
    assert arr.normalize_index([1]) == (1,)
    for one in (np.int64(1), True, 1.0, (1.0,)):
        assert arr.normalize_index(one) == (1,)
        assert arr.element(one) is arr.elements[(1,)]


def test_index_bounds_checked():
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(E, dims=(2, 2))
    with pytest.raises(MappingError):
        arr.normalize_index((2, 0))
    with pytest.raises(MappingError):
        arr.proxy[(0, 5)]


@pytest.mark.parametrize("index", [
    (1.7, 0), (np.float64(2.9), 1), (0, 0.5), "12", "ab", (0, "1"),
    (None, 0), ([1], 0), (float("nan"), 0), (float("inf"), 0),
], ids=repr)
def test_non_integral_component_rejected_not_truncated(index):
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(E, dims=(3, 3))
    for lookup in (arr.normalize_index, arr.pe_of, arr.element,
                   arr.proxy.__getitem__, lambda i: arr.section([i]),
                   lambda i: rt.send(arr, i, "hit")):
        with pytest.raises(MappingError):
            lookup(index)


@pytest.mark.parametrize("index", [2.5, np.float64(1.5), "ab", "1", None],
                         ids=repr)
def test_non_integer_scalar_rejected(index):
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(E, dims=(4,))
    for lookup in (arr.normalize_index, arr.pe_of, arr.proxy.__getitem__):
        with pytest.raises(MappingError):
            lookup(index)


@pytest.mark.parametrize("index", [
    (np.int64(1), 2), (True, 2), (1.0, 2), (1, np.float64(2.0)),
    [1, 2], np.array([1, 2]), (np.int32(1), np.uint8(2)),
], ids=repr)
def test_integral_components_resolve_to_their_element(index):
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(E, dims=(3, 3))
    target = arr.elements[(1, 2)]
    assert arr.normalize_index(index) == (1, 2)
    assert type(arr.normalize_index(index)[0]) is int
    assert arr.element(index) is target
    assert arr.pe_of(index) == target.my_pe
    rt.send(arr, index, "hit", ("x",))
    rt.run()
    assert target.hits == [("x",)]


def test_element_lookup_and_pe_of():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(E, dims=(8,))
    for i in range(8):
        e = arr.element(i)
        assert e.thisIndex == (i,)
        assert arr.pe_of(i) == e._pe.rank


def test_local_elements_partition():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(E, dims=(8,))
    seen = []
    for pe, idxs in arr.local_elements.items():
        seen.extend(idxs)
        assert arr.local_count(pe) == len(idxs)
    assert sorted(seen) == [(i,) for i in range(8)]


def test_home_pes_sorted_subset():
    rt = Runtime(ABE, n_pes=8)
    arr = rt.create_array(
        E, dims=(3,), mapping=CustomMap(lambda idx, dims, n: [6, 2, 4][idx[0]])
    )
    assert arr.home_pes == [2, 4, 6]


def test_tree_parent_child_consistency():
    rt = Runtime(ABE, n_pes=16)
    arr = rt.create_array(E, dims=(16,))
    root = arr.home_pes[0]
    assert arr.tree_parent(root) is None
    for pe in arr.home_pes:
        for child in arr.tree_children(pe):
            assert arr.tree_parent(child) == pe
    # every non-root is someone's child exactly once
    all_children = [c for pe in arr.home_pes for c in arr.tree_children(pe)]
    assert sorted(all_children) == sorted(p for p in arr.home_pes if p != root)


def test_tree_depth_logarithmic():
    rt = Runtime(ABE, n_pes=64)
    arr = rt.create_array(E, dims=(64,))

    def depth(pe):
        d = 0
        while arr.tree_parent(pe) is not None:
            pe = arr.tree_parent(pe)
            d += 1
        return d

    assert max(depth(p) for p in arr.home_pes) <= 6  # log2(64)


def test_element_proxy_getattr_blocks_private():
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(E, dims=(1,))
    with pytest.raises(AttributeError):
        arr.proxy[0]._secret


def test_proxy_send_roundtrip():
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(E, dims=(2, 3))
    arr.proxy[(1, 2)].hit("yes")
    rt.run()
    assert arr.element((1, 2)).hits == [("yes",)]


def test_multidim_arrays_up_to_4d():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(E, dims=(2, 2, 2, 2))
    assert arr.size == 16
    arr.proxy[(1, 1, 1, 1)].hit()
    rt.run()
    assert arr.element((1, 1, 1, 1)).hits == [()]
