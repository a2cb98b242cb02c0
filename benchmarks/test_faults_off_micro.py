"""Microbenchmark: cost of the faults-disabled CkDirect put path.

The reliability layer must be free when it is off: a runtime built
without a fault plan takes one ``rt.reliability is not None`` branch
per cross-PE put, and nothing else changed on the hot path (the
injector wraps fabric methods per *instance*, so an unfaulted fabric
keeps its original bound methods).  This benchmark pins that claim
against a verbatim replica of ``put`` as it stood before the
reliability layer existed, over a put/ready channel workload, and
asserts the issue's acceptance bar: **< 3% µs/event overhead**.
Measured on the CI container the difference is noise (±1%).
"""

from __future__ import annotations

import time

import numpy as np

from conftest import save_report
from repro import ABE, Buffer, Chare, Runtime
from repro import ckdirect as ckd
from repro.charm import CustomMap
from repro.charm.errors import ChannelStateError, CkDirectError
from repro.ckdirect import api as ckapi
from repro.ckdirect.handle import ChannelState

ROUNDS = 7    # best-of, interleaved, to shed scheduler noise
ITERS = 250   # put/ready cycles per round
CHANNELS = 8  # concurrent channels between the two endpoints
NELEMS = 64   # doubles per channel buffer

CROSS = CustomMap(lambda idx, dims, n: 0 if idx[0] == 0 else n - 1)


# ---------------------------------------------------------------------------
# Pre-reliability put replica (the seed's dispatch tail, verbatim
# semantics: same checks, same charges, no reliability branch)
# ---------------------------------------------------------------------------


def _legacy_put(handle):
    rt = handle.rt
    pe = rt.current_pe
    if handle.src_pe is None or handle.src_buffer is None:
        raise CkDirectError(f"{handle.name}: put before assoc_local")
    if pe is None:
        raise CkDirectError(f"{handle.name}: put outside a chare context")
    if pe is not handle.src_pe:
        raise CkDirectError(f"{handle.name}: put from the wrong PE")
    legal = ckapi._PUTTABLE_BGP if ckapi._is_bgp(rt) else ckapi._PUTTABLE_IB
    if handle.state not in legal:
        raise ChannelStateError(f"{handle.name}: put while {handle.state}")
    if handle.state is ChannelState.CONSUMED:
        handle.stamp_sentinel()
    handle.state = ChannelState.IN_FLIGHT
    nbytes = handle.recv_buffer.nbytes
    pe.charge(rt.machine.ckdirect.put_issue)
    if rt.tracer is not None:
        raise AssertionError("benchmark runs untraced")
    rt.trace.count("ckdirect.puts")
    rt.trace.count("ckdirect.put_bytes", nbytes)
    src_rank, dst_rank = pe.rank, handle.recv_pe.rank
    if src_rank == dst_rank:
        delay = rt.machine.net.shm_alpha + nbytes * rt.machine.net.shm_beta
        rt.sim.at(pe.cursor + delay, ckapi._complete, handle)
    else:
        rt.fabric.direct_put(
            src_rank, dst_rank, nbytes, pe.cursor,
            lambda: ckapi._complete(handle)
        )


# ---------------------------------------------------------------------------
# Workload: CHANNELS cross-node channels cycling put -> ready
# ---------------------------------------------------------------------------


class Pair(Chare):
    put_fn = staticmethod(ckd.put)

    def __init__(self):
        self.arrs = [np.zeros(NELEMS) for _ in range(CHANNELS)]
        self.bufs = [Buffer(array=a) for a in self.arrs]
        self.send_arr = np.arange(1.0, NELEMS + 1)
        self.send_buf = Buffer(array=self.send_arr)

    def on_data(self, _cbdata):
        pass

    def do_put_all(self, handles):
        fn = type(self).put_fn
        for h in handles:
            fn(h)

    def do_ready_all(self, handles):
        for h in handles:
            ckd.ready(h)


def _build(put_fn):
    Pair.put_fn = staticmethod(put_fn)
    rt = Runtime(ABE, n_pes=2 * ABE.cores_per_node)  # cross-node channel
    arr = rt.create_array(Pair, dims=(2,), mapping=CROSS)
    recv, send = arr.element(0), arr.element(1)
    handles = []
    for i in range(CHANNELS):
        h = ckd.create_handle(recv, recv.bufs[i], -1.0, recv.on_data)
        ckd.assoc_local(send, h, send.send_buf)
        handles.append(h)
    return rt, arr, handles


def _us_per_event(put_fn) -> float:
    rt, arr, handles = _build(put_fn)
    proxy = arr.proxy
    t0 = time.perf_counter()
    for _ in range(ITERS):
        proxy[1].do_put_all(handles)
        rt.run()
        proxy[0].do_ready_all(handles)
        rt.run()
    dt = time.perf_counter() - t0
    return dt / rt.sim.events_processed * 1e6


def test_disabled_faults_cost_under_three_percent():
    best_legacy = best_new = float("inf")
    for _ in range(ROUNDS):  # interleaved so drift hits both equally
        best_legacy = min(best_legacy, _us_per_event(_legacy_put))
        best_new = min(best_new, _us_per_event(ckd.put))
    overhead = (best_new - best_legacy) / best_legacy * 100.0
    report = "\n".join([
        "Faults-off microbench: us per event (best of %d rounds)" % ROUNDS,
        "=" * 54,
        f"pre-reliability put replica : {best_legacy:.3f} us/event",
        f"current put (faults off)    : {best_new:.3f} us/event",
        f"disabled-path overhead      : {overhead:+.2f}%",
    ])
    save_report("faults_off_micro", report)
    assert overhead < 3.0, (
        f"faults-disabled put path regressed: {overhead:+.2f}% "
        f"({best_legacy:.3f} -> {best_new:.3f} us/event)"
    )


def test_both_put_paths_agree():
    """The replica and the real put drive identical simulations (the
    benchmark compares like for like)."""
    events = []
    for fn in (ckd.put, _legacy_put):
        rt, arr, handles = _build(fn)
        for _ in range(3):
            arr.proxy[1].do_put_all(handles)
            rt.run()
            arr.proxy[0].do_ready_all(handles)
            rt.run()
        # the final ready re-armed the channels, re-stamping the
        # sentinel into each trailing word
        assert all(np.array_equal(a[:-1], arr.element(1).send_arr[:-1])
                   for a in arr.element(0).arrs)
        events.append((rt.sim.events_processed, rt.sim.now))
    assert events[0] == events[1]
