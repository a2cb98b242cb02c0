"""Unit tests for array broadcasts and internal-message priority."""

import pytest

from repro import ABE, Chare, CkCallback, Runtime
from repro.charm import CustomMap, Payload


class Receiver(Chare):
    def __init__(self):
        self.got = []

    def ping(self, *args):
        self.got.append(args)

    def slow(self):
        self.charge(2e-3)


def test_bcast_reaches_every_element():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Receiver, dims=(3, 3))
    arr.proxy.bcast("ping", 7)
    rt.run()
    for e in arr.elements.values():
        assert e.got == [(7,)]


def test_bcast_from_chare_context():
    class Kicker(Chare):
        def kick(self, target_proxy):
            target_proxy.bcast("ping", "x")

    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Receiver, dims=(4,))
    k = rt.create_array(Kicker, dims=(1,))
    k.proxy[0].kick(arr.proxy)
    rt.run()
    for e in arr.elements.values():
        assert e.got == [("x",)]


def test_bcast_payload_packed_once():
    import numpy as np

    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Receiver, dims=(8,))

    class Kicker(Chare):
        def kick(self, target_proxy):
            target_proxy.bcast("ping", np.zeros(100))

    k = rt.create_array(Kicker, dims=(1,))
    k.proxy[0].kick(arr.proxy)
    rt.run()
    # exactly one marshalling copy despite 8 deliveries
    assert rt.trace.counter("charm.pack_copies") == 1


class Root(Receiver):
    def start(self, payload):
        if self.thisIndex == (0,):
            self.proxy.bcast("ping", payload)


def test_bcast_virtual_payload_times_like_real():
    """A packed payload is charged one copy at the broadcast root
    whether or not real bytes back it: the tree PEs forward it unpacked,
    so virtual runs time identically to real ones."""
    import numpy as np

    def run(payload):
        rt = Runtime(ABE, n_pes=16)
        arr = rt.create_array(Root, dims=(64,))
        arr.proxy[0].start(payload)
        rt.run()
        return rt.trace.counter("charm.pack_copies"), rt.makespan

    real = run(Payload(data=np.zeros(10_000), pack=True))  # 80 KB
    virtual = run(Payload(nbytes=80_000, pack=True))
    assert real[0] == 1
    assert virtual == real


def test_bcast_on_sparse_array():
    rt = Runtime(ABE, n_pes=8)
    arr = rt.create_array(
        Receiver, dims=(3,),
        mapping=CustomMap(lambda idx, dims, n: [2, 4, 6][idx[0]]),
    )
    arr.proxy.bcast("ping")
    rt.run()
    assert all(e.got == [()] for e in arr.elements.values())


def test_internal_messages_preempt_long_entries():
    """A reduction release must not staircase behind queued application
    entries on intermediate tree PEs: with a long entry queued on every
    PE, a barrier across the array still completes in ~tree time, not
    ~tree_depth x entry time."""
    n_pes = 16
    rt = Runtime(ABE, n_pes=n_pes)
    workers = rt.create_array(Receiver, dims=(n_pes,))
    contrib = rt.create_array(ContribOnce, dims=(n_pes,))
    t = []
    # queue long entries everywhere, then run the barrier
    workers.proxy.bcast("slow")
    contrib.proxy.bcast("go", CkCallback.host(lambda v: t.append(rt.now)))
    rt.run()
    # one 2ms entry may block each PE once, but the tree must not pay
    # 2ms per stage: total well under depth(4) * 2ms + slack
    assert t[0] < 3 * 2e-3, f"barrier staircased: {t[0] * 1e3:.2f}ms"


class ContribOnce(Chare):
    def go(self, cb):
        self.contribute(callback=cb)
