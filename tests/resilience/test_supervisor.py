"""Shard supervision: crash/hang recovery, degradation, knobs.

The contract: a shard worker that is SIGKILL'd or wedged mid-run is
detected, restarted, and replayed deterministically — the run's
output stays **bit-identical** to a clean serial run — and once the
restart budget is spent the run degrades to the serial engine, still
bit-identical.

SURVEYOR at 16 PEs = 4 nodes (4 cores/node), so ``shards=4`` forks
four real worker processes.
"""

import errno
import hashlib
import multiprocessing as mp
import os

import pytest

from repro.config import MAX_WAIT_S, current, install
from repro.faults import ProcFaultPlan, ProcFaultRule
from repro.network.params import SURVEYOR
from repro.resilience import supervisor
from repro.sim.shm import active_segments

CFG = dict(domain=(16, 16, 16), vr=2, iterations=3,
           validate=True, keep_runtime=True)


def _run(shards, **kw):
    from repro.apps.stencil.driver import run_stencil

    return run_stencil(SURVEYOR, 16, shards=shards, **CFG, **kw)


def _digest(result):
    from repro.apps.stencil.driver import gather_grid

    return hashlib.sha256(gather_grid(result).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def baseline():
    """Serial reference digest + event count."""
    r = _run(shards=1)
    return _digest(r), r.events


# ---------------------------------------------------------------------------
# Clean path
# ---------------------------------------------------------------------------


def test_supervised_clean_run_is_bit_identical(baseline):
    digest, events = baseline
    r = _run(shards=4)
    sup = r.runtime.supervision
    assert sup is not None and sup["supervised"]
    assert sup["restarts"] == 0 and not sup["degraded"]
    assert _digest(r) == digest
    assert r.events == events


# ---------------------------------------------------------------------------
# Crash recovery (SIGKILL mid-epoch)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["conservative", "optimistic"])
def test_sigkill_shard_recovers_bit_identical(baseline, engine):
    digest, events = baseline
    r = _run(shards=4, engine=engine,
             proc_faults=ProcFaultPlan.named("kill-shard"))
    sup = r.runtime.supervision
    assert sup["restarts"] == 1 and sup["crashes"] == 1
    assert not sup["degraded"]
    assert _digest(r) == digest
    assert r.events == events


def test_kill_during_final_collection_recovers(baseline):
    """A worker killed at its *last* barrier (after `done` is logged)
    is replayed through the whole window stream, final included."""
    digest, events = baseline
    # Round count is deterministic (193 for this config at 4 shards);
    # firing at a barrier near the end exercises the done/final replay.
    plan = ProcFaultPlan("kill-late",
                         (ProcFaultRule("kill", shard=2, at_round=193),))
    r = _run(shards=4, proc_faults=plan)
    sup = r.runtime.supervision
    assert sup["restarts"] == 1, "kill round never reached"
    assert _digest(r) == digest
    assert r.events == events


def test_two_kills_within_budget(baseline):
    digest, events = baseline
    plan = ProcFaultPlan("kill-two", (
        ProcFaultRule("kill", shard=1, at_round=3),
        ProcFaultRule("kill", shard=3, at_round=5),
    ))
    r = _run(shards=4, proc_faults=plan)
    sup = r.runtime.supervision
    assert sup["restarts"] == 2 and sup["crashes"] == 2
    assert not sup["degraded"]
    assert _digest(r) == digest
    assert r.events == events


# ---------------------------------------------------------------------------
# Hang detection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["conservative", "optimistic"])
def test_hung_shard_detected_and_restarted(baseline, engine, monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_DEADLINE", "1")
    digest, events = baseline
    r = _run(shards=4, engine=engine,
             proc_faults=ProcFaultPlan.named("hang-shard"))
    sup = r.runtime.supervision
    assert sup["hangs"] == 1 and sup["restarts"] == 1
    assert not sup["degraded"]
    assert _digest(r) == digest
    assert r.events == events


def test_slow_worker_is_not_a_false_positive(baseline):
    """A straggler under the deadline must never trip the detector."""
    digest, events = baseline
    r = _run(shards=4, proc_faults=ProcFaultPlan.named("slow-worker"))
    sup = r.runtime.supervision
    assert sup["restarts"] == 0 and sup["hangs"] == 0
    assert _digest(r) == digest
    assert r.events == events


# ---------------------------------------------------------------------------
# Degradation ladder: budget exhausted -> serial, still bit-identical
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["conservative", "optimistic"])
def test_restart_budget_degrades_to_serial(baseline, engine, monkeypatch):
    monkeypatch.setattr(supervisor, "MAX_RESTARTS", 1)
    digest, events = baseline
    plan = ProcFaultPlan("kill-every", (
        ProcFaultRule("kill", shard=1, at_round=3, every_incarnation=True),
    ))
    r = _run(shards=4, engine=engine, proc_faults=plan)
    sup = r.runtime.supervision
    assert sup["degraded"] is True
    assert sup["restarts"] == 1  # budget, then surrender
    assert r.runtime.parallel_rounds is None  # serial path ran
    if engine == "optimistic":
        assert all(v == 0 for v in r.runtime.timewarp_stats.values())
    assert _digest(r) == digest
    assert r.events == events


def test_zero_budget_degrades_on_first_failure(baseline, monkeypatch):
    monkeypatch.setattr(supervisor, "MAX_RESTARTS", 0)
    digest, events = baseline
    r = _run(shards=4, proc_faults=ProcFaultPlan.named("kill-shard"))
    sup = r.runtime.supervision
    assert sup["degraded"] and sup["restarts"] == 0
    assert _digest(r) == digest
    assert r.events == events


# ---------------------------------------------------------------------------
# Spawn failure: shards already started are reaped, not stranded
# ---------------------------------------------------------------------------


def _third_call_fails(fn, err):
    """``fn``, except that its third call raises ``OSError(err)``."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise OSError(err, os.strerror(err))
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("failure", ["channel", "fork"])
@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_failed_spawn_reaps_started_shards(monkeypatch, transport, failure):
    """A full /dev/shm (the third channel_pair) or a failed fork (the
    third os.fork) while the supervisor starts four shards must leave
    no shard process and no ring segment behind once the error
    surfaces."""
    if failure == "channel":
        monkeypatch.setattr(supervisor, "channel_pair", _third_call_fails(
            supervisor.channel_pair, errno.ENOSPC))
    else:
        monkeypatch.setattr(os, "fork", _third_call_fails(
            os.fork, errno.EAGAIN))
    procs, segs = set(mp.active_children()), set(active_segments())
    with pytest.raises(OSError):
        _run(shards=4, transport=transport)
    assert [p.name for p in mp.active_children() if p not in procs] == []
    assert sorted(set(active_segments()) - segs) == []


# ---------------------------------------------------------------------------
# Deadline bound
# ---------------------------------------------------------------------------


def test_longest_accepted_deadline_is_pollable(baseline):
    """The largest shard deadline the config accepts still fits
    poll(2)'s int-millisecond timeout on the pipe transport."""
    digest, events = baseline
    with install(current().replace(shard_deadline=MAX_WAIT_S)):
        r = _run(shards=4, transport="pipe")
    assert r.runtime.supervision["restarts"] == 0
    assert _digest(r) == digest
    assert r.events == events
