"""The cyclic collector and a run's lifetime.

``Runtime.run`` turns the cyclic collector off for the run and puts
back the caller's setting when it returns or raises.  The guard counts
the runs in progress across threads and nesting, so the collector
stays off until the last of them ends.  Shard workers fork inside the
guard and inherit it.

A driver calls ``Runtime.close()`` once it has read its results, so
reference counting frees the run as soon as the driver returns: with
the collector off, a full collection finds none of its PEs, chares,
CkDirect handles or buffers.
"""

import gc
import threading
import weakref

import pytest

from repro import ABE, SURVEYOR, Chare, Runtime
from repro.apps.matmul.driver import run_matmul
from repro.apps.openatom.driver import abe_2cpn, run_openatom
from repro.apps.pingpong import charm_pingpong, ckdirect_pingpong
from repro.apps.stencil.driver import run_stencil
from repro.charm.pe import PE
from repro.ckdirect.handle import CkDirectHandle
from repro.sim import Trace
from repro.util.buffers import Buffer


@pytest.fixture
def collector_on():
    """The collector is on when the test starts and after it ends."""
    gc.enable()
    yield
    gc.enable()


class Probe(Chare):
    """Records whether the collector is on each time it runs."""

    def __init__(self):
        self.seen = []

    def look(self):
        self.seen.append(gc.isenabled())

    def boom(self):
        raise RuntimeError("boom")

    def shard_state(self):
        return {"seen": self.seen}


def _probe_run(n_pes=2, **kw):
    rt = Runtime(ABE, n_pes=n_pes, **kw)
    return rt, rt.create_array(Probe, dims=(n_pes,))


def _seen(arr):
    return [s for idx in sorted(arr.elements) for s in arr.elements[idx].seen]


# ---------------------------------------------------------------------------
# The guard
# ---------------------------------------------------------------------------


def test_collector_off_inside_a_run_and_back_after(collector_on):
    rt, arr = _probe_run()
    arr.proxy.bcast("look")
    rt.run()
    assert _seen(arr) == [False, False]
    assert gc.isenabled()


def test_caller_that_disabled_the_collector_gets_it_back_disabled(collector_on):
    rt, arr = _probe_run()
    arr.proxy.bcast("look")
    gc.disable()
    rt.run()
    assert not gc.isenabled()
    assert _seen(arr) == [False, False]


def test_entry_method_that_raises_still_restores_the_collector(collector_on):
    rt, arr = _probe_run()
    arr.proxy[0].boom()
    with pytest.raises(RuntimeError, match="boom"):
        rt.run()
    assert gc.isenabled()


def test_nested_run_keeps_the_collector_off_until_the_outer_run_ends(
        collector_on):
    outer, arr = _probe_run()
    after_inner = []

    def start_inner(_value=None):
        inner, inner_arr = _probe_run()
        inner_arr.proxy[0].look()
        inner.run()
        after_inner.append(gc.isenabled())
        arr.proxy[1].look()  # an outer entry method after the inner run

    outer.host_call(start_inner)
    outer.run()
    assert after_inner == [False]
    assert _seen(arr) == [False]
    assert gc.isenabled()


def test_overlapping_runs_on_two_threads(collector_on):
    """A run that ends while another thread's run goes on leaves the
    collector off; the last run to end turns it back on."""
    first_started, second_done = threading.Event(), threading.Event()
    seen = {}
    errors = []

    class Blocker(Chare):
        def hold(self):
            first_started.set()
            seen["second_done_in_time"] = second_done.wait(timeout=30)
            seen["first_after_second"] = gc.isenabled()

    def first():
        try:
            rt = Runtime(ABE, n_pes=1)
            rt.create_array(Blocker, dims=(1,)).proxy[0].hold()
            rt.run()
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def second():
        try:
            assert first_started.wait(timeout=30)
            rt, arr = _probe_run()
            arr.proxy.bcast("look")
            rt.run()
            seen["second_inside"] = _seen(arr)
            seen["second_after"] = gc.isenabled()
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)
        finally:
            second_done.set()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert seen == {
        "second_done_in_time": True,
        "second_inside": [False, False],
        "second_after": False,
        "first_after_second": False,
    }
    assert gc.isenabled()


def test_shard_workers_run_with_the_collector_off(collector_on):
    # Abe has 8 cores per node: 16 PEs are two nodes, two forked shards.
    rt, arr = _probe_run(n_pes=16, shards=2)
    arr.proxy.bcast("look")
    rt.run()
    assert rt.parallel_rounds
    assert len(rt.shard_cpu_times) == 2
    assert _seen(arr) == [False] * 16
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# A finished run frees itself
# ---------------------------------------------------------------------------


STENCIL = dict(domain=(16, 16, 16), vr=2, iterations=2)
OPENATOM = dict(nstates=8, nplanes=2, grain=4, points_per_plane=64,
                iterations=2, rest_rounds=2)

DRIVERS = {
    "stencil-msg": lambda: run_stencil(ABE, 16, mode="msg", **STENCIL),
    "stencil-ckd": lambda: run_stencil(ABE, 16, mode="ckd", **STENCIL),
    "stencil-msg-shards2":
        lambda: run_stencil(ABE, 16, mode="msg", shards=2, **STENCIL),
    "stencil-ckd-shards2":
        lambda: run_stencil(ABE, 16, mode="ckd", shards=2, **STENCIL),
    "matmul-ckd":
        lambda: run_matmul(SURVEYOR, 16, N=32, c=2, iterations=2, mode="ckd"),
    "openatom-ckd":
        lambda: run_openatom(abe_2cpn(ABE), 16, mode="ckd", **OPENATOM),
    "charm-pingpong": lambda: charm_pingpong(ABE, 2000, iterations=5),
    "ckdirect-pingpong": lambda: ckdirect_pingpong(ABE, 2000, iterations=5),
    "stencil-ckd-drop":
        lambda: run_stencil(ABE, 16, mode="ckd", faults="drop", **STENCIL),
}


@pytest.mark.parametrize("name", list(DRIVERS))
def test_finished_run_frees_itself(name, monkeypatch, collector_on):
    made = []
    init = Runtime.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append((weakref.ref(self), type(self.sim)))

    monkeypatch.setattr(Runtime, "__init__", recording_init)
    gc.collect()
    gc.disable()
    try:
        DRIVERS[name]()
        alive = [ref() is not None for ref, _ in made]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    [(_, sim_type)] = made

    def found(*types):
        return sum(1 for o in garbage if isinstance(o, types))

    assert found(PE, Chare, CkDirectHandle, Buffer) == 0
    if name.endswith("-drop"):
        # The fault machinery keeps the emptied runtime shell in a
        # cycle (watchdog <-> runtime, injector wrappers on the fabric).
        return
    assert alive == [False]
    assert found(Runtime, sim_type, Trace) == 0
