"""Unit tests for report rendering."""

from repro.bench.report import render_series, render_table


def test_render_table_contains_everything():
    out = render_table(
        "Title X", [100, 1000],
        {"A": [1.0, 2.0]}, {"A": [1.1, 2.1]},
    )
    assert "Title X" in out
    assert "A (ours)" in out
    assert "A (paper)" in out
    assert "100B" in out and "1KB" in out
    assert "1.00" in out and "2.10" in out


def test_render_table_without_paper():
    out = render_table("T", [5], {"A": [3.0]}, None)
    assert "(paper)" not in out


def test_render_series():
    out = render_series(
        "Fig Z", "PEs", [64, 128],
        {"gain %": [1.5, 2.5]}, unit="%", claim="it grows",
    )
    assert "Fig Z" in out
    assert "paper claim: it grows" in out
    assert "64" in out and "2.500" in out


def test_paper_data_tables_complete():
    from repro.bench.paper_data import (
        PINGPONG_SIZES,
        TABLE1_RTT_US,
        TABLE2_RTT_US,
    )

    assert len(PINGPONG_SIZES) == 10
    for table, n_stacks in ((TABLE1_RTT_US, 5), (TABLE2_RTT_US, 4)):
        assert len(table) == n_stacks
        for stack, vals in table.items():
            assert len(vals) == 10, stack
            # RTTs grow with size within each stack
            assert vals[-1] > vals[0]
