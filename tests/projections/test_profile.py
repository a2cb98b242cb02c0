"""Tests for the ``repro profile`` artifact and its reconciliation."""

import pytest

from repro.config import current, install
from repro.network.params import ABE, SURVEYOR
from repro.projections.eventlog import EventLog
from repro.projections.profile import (
    ProfileError,
    reconcile,
    render_profile,
    run_profile,
)


def test_pingpong_profile_reconciles():
    result = run_profile(app="pingpong", machine=ABE, stack="ckdirect",
                         size=2000, iterations=10)
    rows = result["reconciliation"]
    assert rows, "no reconcilable categories"
    for row in rows:
        assert row["ok"], (
            f"{row['label']}: timeline={row['timeline']} vs "
            f"{row['counter_name']}={row['counter']}"
        )


def test_profile_reports_the_configured_transport():
    for transport in ("pipe", "shm"):
        with install(current().replace(transport=transport)):
            result = run_profile(app="pingpong", machine=ABE,
                                 stack="ckdirect", size=1000, iterations=5)
        assert f"transport={transport}," in result["report"]


def test_profile_report_sections():
    result = run_profile(app="pingpong", machine=ABE, stack="charm",
                         size=1000, iterations=5)
    report = result["report"]
    assert "profile: pingpong/charm on Abe" in report
    assert "reconciliation vs Trace counters" in report
    assert "critical path:" in report
    assert "ckdirect" not in result["categories"]  # charm stack has no puts


def test_profile_result_keys():
    result = run_profile(app="pingpong", machine=SURVEYOR, stack="ckdirect",
                         size=1000, iterations=5)
    assert result["machine"] == "Surveyor"
    assert result["log"].events
    assert result["critical_path"]["events"] > 1
    assert result["utilization"]


def test_mpi_profile_reconciles():
    result = run_profile(app="pingpong", machine=ABE, stack="mpi",
                         size=1000, iterations=5)
    labels = {row["label"] for row in result["reconciliation"]}
    assert {"mpi sends", "mpi recvs"} <= labels
    assert all(row["ok"] for row in result["reconciliation"])


def test_stencil_profile_runs():
    result = run_profile(app="stencil", machine=ABE, stack="ckdirect",
                         iterations=1, n_pes=8)
    assert all(row["ok"] for row in result["reconciliation"])


def test_unknown_app_rejected():
    with pytest.raises(ProfileError):
        run_profile(app="nbody")


def test_unsupported_stack_rejected():
    with pytest.raises(ProfileError):
        run_profile(app="stencil", stack="mpi-put")


def test_reconcile_empty_log():
    assert reconcile(EventLog()) == []


def test_render_profile_empty_log():
    out = render_profile(EventLog(), headline="empty")
    assert "empty" in out
    assert "0 timeline events" in out
