"""Unit tests for deterministic RNG streams."""

import numpy as np

from repro.sim.rng import substream


def test_substream_stable():
    a = substream(1, 3, 7).random(5)
    b = substream(1, 3, 7).random(5)
    assert np.array_equal(a, b)


def test_substream_path_sensitivity():
    a = substream(1, 3, 7).random(5)
    b = substream(1, 7, 3).random(5)
    c = substream(1, 3, 8).random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_independent_of_creation_order():
    first = substream(9, 0).random(4)
    _ = substream(9, 5).random(4)
    again = substream(9, 0).random(4)
    assert np.array_equal(first, again)
