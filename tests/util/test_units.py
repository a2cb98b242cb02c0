"""Unit tests for unit helpers."""

import pytest

from repro.util import units


def test_time_conversions_roundtrip():
    assert units.us(4.2) == pytest.approx(4.2e-6)
    assert units.ms(1.5) == pytest.approx(1.5e-3)
    assert units.us(1000) == pytest.approx(units.ms(1))


def test_sizes_are_decimal_like_the_paper():
    assert units.KB(1) == 1_000
    assert units.MB(1) == 1_000_000


def test_fmt_bytes():
    assert units.fmt_bytes(100) == "100B"
    assert units.fmt_bytes(5_000) == "5KB"
    assert units.fmt_bytes(500_000) == "500KB"
    assert units.fmt_bytes(2_000_000) == "2MB"
