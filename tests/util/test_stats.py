"""Unit tests for statistics helpers."""

import pytest

from repro.util.stats import monotone_increasing, percent_improvement


def test_percent_improvement():
    assert percent_improvement(100.0, 88.0) == pytest.approx(12.0)
    assert percent_improvement(10.0, 12.0) == pytest.approx(-20.0)
    with pytest.raises(ValueError):
        percent_improvement(0.0, 1.0)


def test_monotone_increasing():
    assert monotone_increasing([1, 2, 3])
    assert not monotone_increasing([1, 3, 2])
    assert monotone_increasing([1, 3, 2.5], slack=0.6)
    assert monotone_increasing([])
    assert monotone_increasing([5])
