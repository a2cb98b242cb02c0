"""Fast harness tests at miniature scales: every runner produces a
well-formed result structure and report (the full-scale sweeps live in
benchmarks/)."""

import pytest

from repro.bench import (
    full_scale,
    run_fig2a,
    run_fig2b,
    run_fig3,
    run_table1,
    run_table2,
)
from repro.config import ConfigError
from repro.network.params import SURVEYOR


def test_full_scale_env(monkeypatch):
    monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
    assert not full_scale()
    for on in ("1", "true", "True", "YES", "on"):
        monkeypatch.setenv("REPRO_FULL_SCALE", on)
        assert full_scale(), on
    for off in ("0", "", "false", "False", "FALSE", "no", "off", "OFF"):
        monkeypatch.setenv("REPRO_FULL_SCALE", off)
        assert not full_scale(), off
    monkeypatch.setenv("REPRO_FULL_SCALE", "maybe")
    with pytest.raises(ConfigError, match="REPRO_FULL_SCALE"):
        full_scale()


def test_table1_custom_sizes_no_paper_column():
    r = run_table1(sizes=[100, 5000], iterations=10)
    assert r["paper"] is None
    assert len(r["measured"]) == 5
    assert all(len(v) == 2 for v in r["measured"].values())
    assert "(paper)" not in r["report"]


def test_table2_custom_sizes():
    r = run_table2(sizes=[100], iterations=10)
    assert set(r["measured"]) == {
        "Default CHARM++", "CkDirect CHARM++", "MPI", "MPI-Put"
    }


def test_fig2a_small_pes():
    r = run_fig2a(pes=[4, 8], iterations=2)
    assert r["pes"] == [4, 8]
    assert len(r["gains"]) == 2
    assert all(m > 0 for m in r["msg_ms"])
    assert "Figure 2(a)" in r["report"]


def test_fig2b_small_pes():
    r = run_fig2b(pes=[8], iterations=2)
    assert len(r["gains"]) == 1


def test_fig3_small():
    r = run_fig3(SURVEYOR, pes=[8], iterations=1)
    assert r["pes"] == [8]
    assert r["msg_ms"][0] > r["ckd_ms"][0] * 0.5  # sane magnitudes
