"""Unit tests for chare-to-PE mappings."""

import itertools

import numpy as np
import pytest

from repro.charm.mapping import (
    BlockMap,
    CustomMap,
    MappingError,
    linear_index,
)


def test_linear_index_row_major():
    assert linear_index((0, 0), (2, 3)) == 0
    assert linear_index((0, 2), (2, 3)) == 2
    assert linear_index((1, 0), (2, 3)) == 3
    assert linear_index((1, 2), (2, 3)) == 5


@pytest.mark.parametrize("dims", [(5,), (3, 4), (2, 3, 4), (2, 3, 2, 3)])
def test_linear_index_matches_numpy_ravel(dims):
    for idx in itertools.product(*(range(d) for d in dims)):
        lin = linear_index(idx, dims)
        assert type(lin) is int
        assert lin == np.ravel_multi_index(idx, dims)


def test_linear_index_bounds():
    with pytest.raises(MappingError):
        linear_index((2, 0), (2, 3))
    with pytest.raises(MappingError):
        linear_index((0, -1), (2, 3))
    with pytest.raises(MappingError):
        linear_index((0,), (2, 3))


def test_block_map_contiguous():
    m = BlockMap()
    dims, n_pes = (8,), 4  # 2 per PE
    pes = [m.pe_for((i,), dims, n_pes) for i in range(8)]
    assert pes == [0, 0, 1, 1, 2, 2, 3, 3]


def test_block_map_covers_all_pes():
    m = BlockMap()
    dims, n_pes = (4, 4, 4), 8
    pes = {m.pe_for((i, j, k), dims, n_pes)
           for i in range(4) for j in range(4) for k in range(4)}
    assert pes == set(range(8))


def test_block_map_balanced():
    m = BlockMap()
    dims, n_pes = (16,), 4
    from collections import Counter

    counts = Counter(m.pe_for((i,), dims, n_pes) for i in range(16))
    assert set(counts.values()) == {4}


def test_custom_map():
    m = CustomMap(lambda idx, dims, n: (idx[0] * 2) % n)
    assert m.pe_for((3,), (8,), 4) == 2


def test_custom_map_range_checked():
    m = CustomMap(lambda idx, dims, n: n + 1)
    with pytest.raises(MappingError):
        m.pe_for((0,), (1,), 2)
