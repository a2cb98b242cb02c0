"""Tests for the command-line interface."""

import os

import pytest

import repro.sim.eventq as eventq_mod
from repro import cli
from repro.cli import main
from repro.config import current

#: One malformed value per run-configuration variable.
MALFORMED_ENV = {
    "REPRO_JOBS": "many",
    "REPRO_SHARDS": "lots",
    "REPRO_EVENTQ": "splay",
    "REPRO_TRANSPORT": "bogus",
    "REPRO_SHARD_DEADLINE": "soon",
    "REPRO_SWEEP_TIMEOUT": "inf",
    "REPRO_FULL_SCALE": "maybe",
}


def _must_not_run(*args, **kwargs):
    raise AssertionError("started despite a malformed run configuration")


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig5" in out


def test_pingpong_stacks(capsys):
    for stack in ("charm", "ckdirect", "mpi", "mpi-put"):
        assert main(["pingpong", "--stack", stack, "--machine", "Abe",
                     "--size", "1000", "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert "us round trip" in out


def test_pingpong_bgp(capsys):
    assert main(["pingpong", "--machine", "Surveyor", "--size", "100",
                 "--iterations", "10"]) == 0
    assert "Surveyor" in capsys.readouterr().out


def test_fig2a_small(capsys):
    assert main(["fig2a", "--pes", "8", "16"]) == 0
    out = capsys.readouterr().out
    assert "improvement %" in out


def test_table_runs(capsys):
    assert main(["table1", "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    assert "CkDirect CHARM++ (ours)" in out
    assert "(paper)" in out


def test_unknown_artifact_rejected():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_bad_machine_rejected():
    with pytest.raises(SystemExit):
        main(["pingpong", "--machine", "Frontier"])


def test_profile_artifact(capsys):
    assert main(["profile", "--app", "pingpong", "--machine", "Abe",
                 "--size", "1000", "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    assert "profile: pingpong/ckdirect on Abe" in out
    assert "reconciliation vs Trace counters" in out
    assert "MISMATCH" not in out
    assert "critical path:" in out


def test_profile_rejects_bad_stack(capsys):
    assert main(["profile", "--app", "stencil", "--stack", "mpi"]) == 2
    err = capsys.readouterr().err
    assert "supports stacks" in err


def test_trace_out_unwritable_path(capsys):
    assert main(["pingpong", "--iterations", "5",
                 "--trace-out", "/nonexistent-dir/t.json"]) == 2
    assert "cannot write trace" in capsys.readouterr().err


def test_trace_out_writes_valid_chrome_json(tmp_path, capsys):
    import json

    path = tmp_path / "pp.trace.json"
    assert main(["pingpong", "--machine", "Abe", "--stack", "ckdirect",
                 "--size", "2000", "--iterations", "10",
                 "--trace-out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "us round trip" in out
    assert f"trace events to {path}" in out

    doc = json.loads(path.read_text())
    data = [r for r in doc["traceEvents"] if r["ph"] in ("X", "i")]
    assert data
    names = {r["name"].split(":")[0] for r in data}
    assert {"poll_sweep", "put_complete"} <= names
    # at least one complete span on every PE track that saw events,
    # and monotone timestamps within each track
    tracks = {}
    for r in data:
        tracks.setdefault((r["pid"], r["tid"]), []).append(r)
    pe_tracks = [k for k in tracks if k[1] >= 2]  # tid 0/1 are net/host
    assert pe_tracks
    for key in pe_tracks:
        assert any(r["ph"] == "X" for r in tracks[key]), key
    for key, rows in tracks.items():
        ts = [r["ts"] for r in rows]
        assert ts == sorted(ts), key


def test_trace_out_profile(tmp_path, capsys):
    import json

    path = tmp_path / "prof.trace.json"
    assert main(["profile", "--size", "1000", "--iterations", "5",
                 "--trace-out", str(path)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert json.loads(path.read_text())["traceEvents"]


def test_trace_out_multi_run_artifact(tmp_path):
    import json

    path = tmp_path / "fig2a.trace.json"
    assert main(["fig2a", "--pes", "8", "--trace-out", str(path)]) == 0
    doc = json.loads(path.read_text())
    pids = {r["pid"] for r in doc["traceEvents"]}
    assert len(pids) > 1  # one trace process per simulated runtime


#: count flag -> an artifact that reads it.
COUNT_FLAGS = {
    "--pes": "fig2a",
    "--size": "pingpong",
    "--iterations": "pingpong",
    "--jobs": "table1",
    "--shards": "table1",
}


@pytest.mark.parametrize("flag", sorted(COUNT_FLAGS))
def test_nonpositive_count_flags_rejected(flag, capsys):
    """A count flag below 1 is a usage error (exit 2), never a
    traceback from inside the run."""
    for bad in ("0", "-8"):
        with pytest.raises(SystemExit) as exc:
            main([COUNT_FLAGS[flag], flag, bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: must be at least 1, got '{bad}'" in err
        assert "Traceback" not in err


def test_malformed_jobs_env_is_clear_error(monkeypatch, capsys):
    """Garbage REPRO_JOBS gives a one-line error, not a traceback."""
    monkeypatch.setenv("REPRO_JOBS", "many")
    assert main(["table1", "--iterations", "5"]) == 2
    err = capsys.readouterr().err
    assert "REPRO_JOBS must be a positive integer" in err
    assert "Traceback" not in err


def test_malformed_shards_env_is_clear_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SHARDS", "lots")
    assert main(["fig2a", "--pes", "8"]) == 2
    err = capsys.readouterr().err
    assert "REPRO_SHARDS must be a positive integer" in err
    assert "Traceback" not in err


def test_negative_jobs_env_is_clear_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "-1")
    assert main(["table1", "--iterations", "5"]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_jobs_flag_overrides_env(monkeypatch, capsys):
    """Documented precedence: flag > env > default."""
    monkeypatch.setenv("REPRO_JOBS", "junk-value")
    # The flag re-exports a valid REPRO_JOBS, so the run succeeds.
    assert main(["table1", "--iterations", "5", "--jobs", "2"]) == 0
    assert "CkDirect CHARM++ (ours)" in capsys.readouterr().out


@pytest.mark.parametrize("var", sorted(MALFORMED_ENV))
def test_malformed_env_fails_before_any_run(monkeypatch, capsys, var):
    monkeypatch.setattr(cli, "run_table1", _must_not_run)
    monkeypatch.setenv(var, MALFORMED_ENV[var])
    assert main(["table1", "--iterations", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {var} ")
    assert captured.err.count("\n") == 1


def test_flags_install_the_run_config(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_fig2a", lambda pes: seen.append(
        current()) or {"report": ""})
    assert main(["fig2a", "--jobs", "3", "--shards", "2", "--eventq",
                 "heap", "--transport", "shm", "--full-scale"]) == 0
    (cfg,) = seen
    assert (cfg.jobs, cfg.shards, cfg.eventq, cfg.transport,
            cfg.full_scale) == (3, 2, "heap", "shm", True)
    assert current() != cfg  # uninstalled when main returns


def test_flags_leave_environment_untouched(capsys):
    before = dict(os.environ)
    assert main(["fig2a", "--pes", "8", "--shards", "2", "--transport",
                 "shm", "--eventq", "heap"]) == 0
    assert "Figure 2(a)" in capsys.readouterr().out
    assert dict(os.environ) == before


@pytest.mark.parametrize("var", ["REPRO_JOBS", "REPRO_TRANSPORT"])
def test_serve_rejects_malformed_env_before_binding(monkeypatch, capsys, var):
    import repro.serve.app as serve_app
    from repro.serve.cli import serve_main

    monkeypatch.setattr(serve_app, "ServeApp", _must_not_run)
    monkeypatch.setattr(serve_app, "serve_forever", _must_not_run)
    monkeypatch.setenv(var, MALFORMED_ENV[var])
    assert serve_main(["--port", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {var} ") and err.count("\n") == 1


@pytest.mark.parametrize("how", ["flag", "env"])
def test_unbuilt_compiled_core_fails_before_any_run(monkeypatch, capsys, how):
    monkeypatch.setattr(eventq_mod, "_ceventq", None)
    monkeypatch.setattr(cli, "_run_pingpong", _must_not_run)
    argv = ["pingpong", "--iterations", "5"]
    if how == "flag":
        argv += ["--eventq", "compiled"]
    else:
        monkeypatch.setenv("REPRO_EVENTQ", "compiled")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eventq=compiled but ")
    assert captured.err.count("\n") == 1


def test_serve_rejects_unbuilt_compiled_core_before_binding(monkeypatch, capsys):
    import repro.serve.app as serve_app
    from repro.serve.cli import serve_main

    monkeypatch.setattr(eventq_mod, "_ceventq", None)
    monkeypatch.setattr(serve_app, "ServeApp", _must_not_run)
    monkeypatch.setattr(serve_app, "serve_forever", _must_not_run)
    monkeypatch.setenv("REPRO_EVENTQ", "compiled")
    assert serve_main(["--port", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eventq=compiled but ") and err.count("\n") == 1


def test_list_includes_service_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "serve" in out and "submit" in out


def test_serve_flag_validation():
    from repro.serve.cli import serve_main

    assert serve_main(["--workers", "0"]) == 2
    assert serve_main(["--queue", "0"]) == 2
    assert serve_main(["--cache-mb", "0"]) == 2
    assert serve_main(["--jobs-per-run", "0"]) == 2
    assert serve_main(["--port", "-1"]) == 2
    assert serve_main(["--point-timeout", "0"]) == 2
    assert serve_main(["--point-timeout", "-5"]) == 2


def test_submit_requires_kind_or_spec_json():
    from repro.serve.cli import submit_main

    with pytest.raises(SystemExit):
        submit_main([])
    with pytest.raises(SystemExit):
        submit_main(["--kind", "pingpong", "--spec-json", "x.json"])


def test_submit_bad_param_rejected(capsys):
    from repro.serve.cli import submit_main

    assert submit_main(["--kind", "pingpong", "--param", "noequals"]) == 2
    assert "--param needs K=V" in capsys.readouterr().err


def test_submit_unreachable_server(capsys):
    from repro.serve.cli import submit_main

    # Port 1 is never listening; expect a clean error, not a traceback.
    assert submit_main(["--kind", "pingpong", "--port", "1",
                        "--param", "size=100"]) == 2
    assert "cannot reach server" in capsys.readouterr().err
