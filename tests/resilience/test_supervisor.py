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
import subprocess
import sys
import time

import pytest

import repro

from repro.config import MAX_WAIT_S, current, install
from repro.faults import ProcFaultPlan, ProcFaultRule
from repro.network.params import ABE, SURVEYOR
from repro.resilience import supervisor
from repro.sim.parallel import ParallelEngineError
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


@pytest.mark.parametrize("engine", ["conservative"])
def test_sigkill_shard_recovers_bit_identical(baseline, engine):
    digest, events = baseline
    r = _run(shards=4, proc_faults=ProcFaultPlan.named("kill-shard"))
    assert r.runtime.engine == engine
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


@pytest.mark.parametrize("engine", ["conservative"])
def test_hung_shard_detected_and_restarted(baseline, engine, monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_DEADLINE", "1")
    digest, events = baseline
    r = _run(shards=4, proc_faults=ProcFaultPlan.named("hang-shard"))
    assert r.runtime.engine == engine
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


@pytest.mark.parametrize("engine", ["conservative"])
def test_restart_budget_degrades_to_serial(baseline, engine, monkeypatch):
    monkeypatch.setattr(supervisor, "MAX_RESTARTS", 1)
    digest, events = baseline
    plan = ProcFaultPlan("kill-every", (
        ProcFaultRule("kill", shard=1, at_round=3, every_incarnation=True),
    ))
    r = _run(shards=4, proc_faults=plan)
    assert r.runtime.engine == engine
    sup = r.runtime.supervision
    assert sup["degraded"] is True
    assert sup["restarts"] == 1  # budget, then surrender
    assert r.runtime.parallel_rounds is None  # serial path ran
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
# Deterministic worker error: surfaces at once, survivors reaped
# ---------------------------------------------------------------------------


class _FailsOnShard1(repro.Chare):
    def go(self):
        if self.my_pe >= 16:  # ABE: PEs 16..31 are nodes 2-3, shard 1
            raise RuntimeError(f"entry failed on PE {self.my_pe}")


@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_worker_error_surfaces_without_waiting_for_survivors(transport):
    """A worker's entry-method error is not retried: the coordinator
    raises it with the worker's traceback.  The surviving worker sits
    at its barrier with nothing to flush, so it is reaped at once
    rather than joined for the clean path's grace period."""
    rt = repro.Runtime(ABE, 32, shards=2, transport=transport)
    arr = rt.create_array(_FailsOnShard1, dims=(32,))
    arr.proxy.bcast("go")
    t0 = time.monotonic()
    with pytest.raises(ParallelEngineError) as err:
        rt.run()
    assert time.monotonic() - t0 < 10.0
    assert "shard 1 failed" in str(err.value)
    assert "RuntimeError: entry failed on PE" in str(err.value)


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


# ---------------------------------------------------------------------------
# Coordinator death: no worker outlives it
# ---------------------------------------------------------------------------

#: Run as ``python -c HELPER <transport>``: become a child subreaper,
#: fork a coordinator running a long two-shard stencil, SIGKILL it once
#: both shard workers exist, and exit 0 only if both workers are gone
#: within 15 s and no new shm segment is left.  Leftovers are killed or
#: unlinked either way.
_ORPHAN_HELPER = r"""
import ctypes, os, signal, sys, time

from repro.sim.shm import segment_prefix

if ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) != 0:
    sys.exit("prctl(PR_SET_CHILD_SUBREAPER) failed")


def segments():
    return {n for n in os.listdir("/dev/shm") if n.startswith(segment_prefix())}


def cmdline(pid):
    with open(f"/proc/{pid}/cmdline", "rb") as f:
        return f.read()


def forked_children(pid):
    # Shard workers are forked, not exec'd: they share pid's cmdline
    # (the shm resource tracker does not).
    out = []
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            if ppid == pid and cmdline(int(name)) == cmdline(pid):
                out.append(int(name))
        except (OSError, ValueError, IndexError):
            pass
    return out


before = segments()
coordinator = os.fork()
if coordinator == 0:
    try:
        from repro.apps.stencil.driver import run_stencil
        from repro.network.params import SURVEYOR

        run_stencil(SURVEYOR, 16, domain=(16, 16, 16), vr=2,
                    iterations=100_000, shards=2, transport=sys.argv[1])
    finally:
        os._exit(0)

deadline = time.monotonic() + 60
while len(workers := forked_children(coordinator)) < 2:
    if time.monotonic() > deadline:
        os.kill(coordinator, signal.SIGKILL)
        sys.exit("shard workers never started")
    time.sleep(0.01)
os.kill(coordinator, signal.SIGKILL)
os.waitpid(coordinator, 0)

alive, deadline = set(workers), time.monotonic() + 15
while alive and time.monotonic() < deadline:
    alive -= {p for p in alive if os.waitpid(p, os.WNOHANG)[0]}
    time.sleep(0.05)
for p in alive:
    os.kill(p, signal.SIGKILL)
    os.waitpid(p, 0)
leaked = segments() - before
for name in leaked:
    os.unlink("/dev/shm/" + name)
deadline = time.monotonic() + 15  # reap the rest: the shm resource
while time.monotonic() < deadline:  # tracker exits once its pipe closes
    try:
        if os.waitpid(-1, os.WNOHANG)[0] == 0:
            time.sleep(0.05)
    except ChildProcessError:
        break
else:
    sys.exit("a child of the coordinator outlived it")
if alive or leaked:
    sys.exit(f"orphaned workers: {sorted(alive)}; leaked: {sorted(leaked)}")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs prctl(PR_SET_CHILD_SUBREAPER) and /proc")
@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_workers_exit_when_coordinator_is_killed(transport):
    """A SIGKILL'd coordinator never closes its channels (every worker
    inherits the coordinator's ends), so each worker must notice its
    reparenting on its own, release its shm rings and exit."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _ORPHAN_HELPER, transport],
        capture_output=True, text=True, timeout=180,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    for shard in (0, 1):
        assert f"shard {shard}: coordinator pid" in out.stderr
