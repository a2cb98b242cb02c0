"""SweepRunner behavior: ordering, crash isolation, timeouts, tracing.

The synthetic point kinds registered here run in forked workers too
(fork inherits the registry), so the parallel paths are exercised for
real — including a worker killed with ``os._exit`` and one that hangs
past the per-point timeout.
"""

import os
import time

import pytest

from repro.config import ConfigError, RunConfig, install
from repro.projections.eventlog import EventLog, tracing
from repro.sweep import (
    RunSpec,
    SweepRunner,
    execute_spec,
    register_point,
    run_sweep,
    stats,
)


@register_point("t-echo")
def _echo(spec):
    return {"x": dict(spec.params)["x"], "events": 10}


@register_point("t-slow-echo")
def _slow_echo(spec):
    time.sleep(dict(spec.params).get("delay", 0.0))
    return {"x": dict(spec.params)["x"], "events": 1}


@register_point("t-fail")
def _fail(spec):
    raise ValueError("point exploded on purpose")


@register_point("t-die")
def _die(spec):
    os._exit(17)  # simulates a segfaulted / OOM-killed worker


@register_point("t-hang")
def _hang(spec):
    time.sleep(60.0)
    return {"x": 0}


@register_point("t-traced")
def _traced(spec):
    from repro.projections.eventlog import current_tracer

    log = current_tracer()
    run = log.new_run(f"traced-{dict(spec.params)['x']}", n_pes=2)
    first = log.instant(run, 0, "msg", "send", 1e-6)
    log.span(run, 1, "entry", "work", 2e-6, 3e-6, cause=first)
    return {"x": dict(spec.params)["x"], "events": 2}


def _specs(kind, n, **extra):
    return [RunSpec.make(kind, "Abe", "m", x=i, **extra) for i in range(n)]


@pytest.fixture(autouse=True)
def _clear_stats():
    stats.RECORDS.clear()
    yield
    stats.RECORDS.clear()


def test_explicit_knobs_use_config_validation():
    for kw in ({"jobs": 0}, {"jobs": 2.7}, {"timeout": 0},
               {"timeout": float("nan")}):
        with pytest.raises(ConfigError):
            SweepRunner(**kw)
    runner = SweepRunner(jobs=3, timeout=2.5)
    assert (runner.config.jobs, runner.timeout) == (3, 2.5)


def test_shard_count_does_not_shrink_the_pool():
    """Sweep workers are daemonic, so a sharded point runs in-process
    there and forks no shards: the pool keeps every requested job."""
    with install(RunConfig(jobs=4, shards=2)):
        assert SweepRunner().jobs == 4


class TestExecuteSpec:
    def test_success_pops_events(self):
        r = execute_spec(RunSpec.make("t-echo", "Abe", "m", x=7))
        assert r.ok and r.values == {"x": 7} and r.events == 10

    def test_failure_captures_traceback(self):
        r = execute_spec(RunSpec.make("t-fail", "Abe", "m", x=0))
        assert not r.ok
        assert "point exploded on purpose" in r.error
        assert "ValueError" in r.error

    def test_unknown_kind_is_a_failed_point(self):
        r = execute_spec(RunSpec.make("no-such-kind", "Abe", "m"))
        assert not r.ok and "no sweep point registered" in r.error


class TestOrderingAndEquality:
    def test_results_follow_spec_order(self):
        # Reverse-sorted delays: completion order inverts submission
        # order, results must not.
        specs = [
            RunSpec.make("t-slow-echo", "Abe", "m", x=i, delay=(4 - i) * 0.05)
            for i in range(5)
        ]
        results = SweepRunner(jobs=5).run(specs)
        assert [r.unwrap()["x"] for r in results] == [0, 1, 2, 3, 4]

    def test_serial_and_parallel_identical(self):
        specs = _specs("t-echo", 6)
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=3).run(specs)
        assert [r.values for r in serial] == [r.values for r in parallel]
        assert [r.events for r in serial] == [r.events for r in parallel]

    def test_run_values_keys_by_spec(self):
        specs = _specs("t-echo", 3)
        values = run_sweep(specs, jobs=2)
        assert values[specs[1].key] == {"x": 1}


class TestIsolation:
    def test_worker_death_fails_one_point_only(self):
        specs = _specs("t-echo", 4)
        specs[2] = RunSpec.make("t-die", "Abe", "m", x=2)
        results = SweepRunner(jobs=2).run(specs)
        assert [r.ok for r in results] == [True, True, False, True]
        assert "died without a result" in results[2].error
        assert "exitcode=17" in results[2].error

    def test_exception_point_fails_cleanly(self):
        specs = _specs("t-echo", 3)
        specs[1] = RunSpec.make("t-fail", "Abe", "m", x=1)
        results = SweepRunner(jobs=3).run(specs)
        assert [r.ok for r in results] == [True, False, True]
        assert "point exploded on purpose" in results[1].error

    def test_timeout_kills_only_the_hung_point(self):
        specs = _specs("t-echo", 3)
        specs[1] = RunSpec.make("t-hang", "Abe", "m", x=1)
        t0 = time.monotonic()
        results = SweepRunner(jobs=3, timeout=1.0).run(specs)
        assert time.monotonic() - t0 < 30.0  # did not wait out the hang
        assert [r.ok for r in results] == [True, False, True]
        assert "timed out after 1" in results[1].error

    def test_failed_sweep_records_failure_count(self):
        specs = [RunSpec.make("t-fail", "Abe", "m", x=0)]
        SweepRunner(jobs=1, label="failing").run(specs)
        assert stats.RECORDS[-1].failed == 1


class TestStats:
    def test_record_shape(self):
        SweepRunner(jobs=2, label="shaped").run(_specs("t-echo", 4))
        rec = stats.RECORDS[-1]
        assert rec.label == "shaped"
        assert rec.jobs == 2
        assert rec.points == 4
        assert rec.failed == 0
        assert rec.events == 40
        assert rec.wall_s > 0
        assert rec.events_per_s > 0
        d = rec.to_dict()
        assert set(d) >= {"label", "jobs", "points", "wall_s", "events",
                          "events_per_s"}

    def test_single_point_runs_serial(self):
        SweepRunner(jobs=4, label="one").run(_specs("t-echo", 1))
        assert stats.RECORDS[-1].jobs == 1  # no pool spun up for one point


class TestTraceMerge:
    def test_parallel_traces_merge_in_spec_order(self):
        specs = _specs("t-traced", 3)
        with tracing() as parallel_log:
            SweepRunner(jobs=3).run(specs)
        with tracing() as serial_log:
            SweepRunner(jobs=1).run(specs)

        assert len(parallel_log.events) == len(serial_log.events) == 6
        assert [label for label, _o, _n in parallel_log.runs] == [
            "traced-0", "traced-1", "traced-2"
        ]
        # eids are log-unique and causal links stay intact post-remap
        by_eid = parallel_log.by_eid()
        assert len(by_eid) == 6
        for ev in parallel_log.events:
            if ev.cause is not None:
                cause = by_eid[ev.cause]
                assert cause.run == ev.run
                assert cause.name == "send" and ev.name == "work"

    def test_untraced_results_carry_no_payload(self):
        results = SweepRunner(jobs=2).run(_specs("t-traced", 2))
        # points use current_tracer(); without one installed they fail —
        # but echo points genuinely carry nothing:
        results = SweepRunner(jobs=2).run(_specs("t-echo", 2))
        assert all(r.trace_events == [] and r.trace_runs == [] for r in results)
