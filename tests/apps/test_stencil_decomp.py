"""Unit tests for stencil decomposition geometry."""

import pytest

from repro.apps.stencil.decomp import (
    DIRECTIONS,
    BlockSpec,
    choose_grid,
    factor_triples,
    opposite,
)


def test_directions_cover_six_faces():
    assert len(DIRECTIONS) == 6
    assert len(set(DIRECTIONS)) == 6


def test_opposite():
    assert opposite((0, 1)) == (0, -1)
    assert opposite((2, -1)) == (2, 1)
    for d in DIRECTIONS:
        assert opposite(opposite(d)) == d


def test_factor_triples_complete():
    triples = set(factor_triples(12))
    assert (1, 1, 12) in triples
    assert (2, 2, 3) in triples
    assert all(a * b * c == 12 for a, b, c in triples)


def test_choose_grid_divides_domain():
    grid = choose_grid((1024, 1024, 512), 2048)
    assert grid[0] * grid[1] * grid[2] == 2048
    assert 1024 % grid[0] == 0
    assert 1024 % grid[1] == 0
    assert 512 % grid[2] == 0


def test_choose_grid_minimizes_surface():
    # a cube domain with a cube count must choose the cubic grid
    assert choose_grid((64, 64, 64), 64) == (4, 4, 4)


def test_choose_grid_respects_aspect():
    # domain twice as long in x: blocks stay near-cubic
    grid = choose_grid((128, 64, 64), 8)
    bx, by, bz = 128 // grid[0], 64 // grid[1], 64 // grid[2]
    assert max(bx, by, bz) <= 2 * min(bx, by, bz)


def test_choose_grid_impossible():
    with pytest.raises(ValueError):
        choose_grid((7, 7, 7), 4)  # 7 not divisible by 2


def test_block_neighbors_interior():
    spec = BlockSpec((1, 1, 1), (3, 3, 3), (8, 8, 8))
    assert len(spec.neighbors()) == 6


def test_block_neighbors_corner():
    spec = BlockSpec((0, 0, 0), (3, 3, 3), (8, 8, 8))
    assert len(spec.neighbors()) == 3
    assert spec.neighbor((0, -1)) is None
    assert spec.neighbor((0, 1)) == (1, 0, 0)


def test_block_single_chare_has_no_neighbors():
    spec = BlockSpec((0, 0, 0), (1, 1, 1), (4, 4, 4))
    assert spec.neighbors() == []


def test_face_sizes():
    spec = BlockSpec((0, 0, 0), (2, 2, 2), (4, 6, 8))
    assert spec.face_elems((0, 1)) == 48  # 6*8
    assert spec.face_elems((1, 1)) == 32  # 4*8
    assert spec.face_elems((2, 1)) == 24  # 4*6
    assert spec.face_bytes((0, 1)) == 48 * 8
    assert spec.interior_elems == 4 * 6 * 8
