"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper, prints
it (visible with ``pytest -s``), saves it under
``benchmarks/results/``, and asserts the paper's shape claims.

Suite-wide options:

``--jobs N``
    Fan each artifact's sweep points over N worker processes.
    Reports and assertions are byte-identical at any N — the
    determinism regression test pins this — so it is purely a
    wall-clock knob.

``--eventq IMPL``
    Back every simulator with the given event-queue implementation
    (see :mod:`repro.sim.eventq`).  Results are byte-identical for
    every choice — like ``--jobs`` it is purely a wall-clock knob.

Both flags beat their ``REPRO_*`` variables: the session resolves one
:class:`~repro.config.RunConfig` from them plus the environment,
installs it for every benchmark, and records it (with the concrete
queue implementation) in the trajectory entry so timings can be
compared across sessions.

``--bench-json [PATH]``
    Append this session's timing trajectory to ``PATH`` (default
    ``benchmarks/results/BENCH_sweeps.json``): wall-clock per
    benchmark module, per-sweep wall/events/events-per-second records,
    named stages recorded by individual benchmarks (``record_stage``),
    and the parallel speedup against the file's most recent serial
    entry.  Successive sessions accumulate, so the file tracks how
    the simulator's throughput moves across PRs.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import defaultdict

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON_DEFAULT = RESULTS_DIR / "BENCH_sweeps.json"

#: module basename -> accumulated test wall-clock seconds.
_module_wall = defaultdict(float)
_session_t0 = 0.0

#: stage name -> payload recorded by individual benchmarks this session.
_stages = {}

#: the session's run configuration (flags + environment).
_run_config = None


def save_report(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def record_stage(name: str, data) -> None:
    """Attach a named measurement to this session's trajectory entry.

    Benchmarks call this with JSON-ready payloads (e.g. the engine
    microbench's per-implementation µs/event table); the data lands
    under ``stages`` in the ``--bench-json`` entry so per-PR trends
    stay queryable without parsing report text.
    """
    _stages[name] = data


def pytest_addoption(parser):
    group = parser.getgroup("repro sweeps")
    group.addoption(
        "--jobs", type=int, default=None, metavar="N",
        help="run sweep points over N worker processes (default: "
             "$REPRO_JOBS; results are identical at any N)",
    )
    group.addoption(
        "--eventq", default=None, metavar="IMPL",
        help="event-queue implementation backing every simulator "
             "(default: $REPRO_EVENTQ; results are identical for every "
             "choice)",
    )
    group.addoption(
        "--bench-json", nargs="?", const=str(BENCH_JSON_DEFAULT),
        default=None, metavar="PATH",
        help="append this session's sweep timings to PATH "
             f"(default {BENCH_JSON_DEFAULT})",
    )


def pytest_configure(config):
    global _session_t0, _run_config
    _session_t0 = time.perf_counter()
    from repro.config import ConfigError, RunConfig

    try:
        _run_config = RunConfig.from_env(
            jobs=config.getoption("--jobs"),
            eventq=config.getoption("--eventq"),
        )
    except ConfigError as exc:
        raise pytest.UsageError(str(exc))


@pytest.fixture(scope="session", autouse=True)
def _installed_run_config():
    from repro.config import install

    with install(_run_config):
        yield _run_config


def pytest_runtest_logreport(report):
    # All phases: module-scoped artifact fixtures run during "setup".
    module = report.nodeid.split("::", 1)[0]
    _module_wall[pathlib.PurePosixPath(module).name] += report.duration


def _load_entries(path: pathlib.Path):
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    return data if isinstance(data, list) else []


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json")
    if not path:
        return
    from dataclasses import asdict

    from repro.sim.eventq import eventq_name, make_simulator
    from repro.sweep import stats

    path = pathlib.Path(path)
    entries = _load_entries(path)
    sweeps = stats.drain()
    entry = {
        "jobs": _run_config.jobs,
        # the implementation every simulator in this session ran on
        "eventq": eventq_name(make_simulator(_run_config.eventq)),
        "config": asdict(_run_config),
        "exit_status": int(exitstatus),
        "total_wall_s": round(time.perf_counter() - _session_t0, 3),
        "modules": {k: round(v, 3) for k, v in sorted(_module_wall.items())},
        "sweeps": sweeps,
        "sweep_wall_s": round(sum(s["wall_s"] for s in sweeps), 3),
        "sweep_events": sum(s["events"] for s in sweeps),
    }
    if _stages:
        entry["stages"] = dict(_stages)
    if entry["jobs"] > 1:
        serial = [e for e in entries if e.get("jobs") == 1]
        if serial:
            base = serial[-1].get("sweep_wall_s") or 0.0
            if base and entry["sweep_wall_s"]:
                entry["speedup_vs_serial"] = round(
                    base / entry["sweep_wall_s"], 2
                )
    entries.append(entry)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(entries, indent=2) + "\n")
    print(f"\nwrote sweep trajectory entry (jobs={entry['jobs']}, "
          f"{len(sweeps)} sweeps) to {path}")
