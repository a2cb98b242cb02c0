"""Unit tests for the PE scheduler loop and queue accounting."""

import pytest

from repro import ABE, SURVEYOR, Chare, Runtime
from repro.charm import Payload
from repro.charm.message import Message


class Log(Chare):
    def __init__(self):
        self.seen = []

    def hit(self, tag):
        self.seen.append(tag)


def _enqueue_hits(n):
    """``n`` messages queued on an idle PE before it runs."""
    rt = Runtime(ABE, n_pes=1)
    arr = rt.create_array(Log, dims=(1,))
    pe = rt.pes[0]
    for i in range(n):
        pe.enqueue(Message(arr.id, (0,), "hit", (i,), 0, None, 0.0))
    return rt, arr.elements[(0,)], pe


def test_scheduler_queue_fifo():
    rt, elem, pe = _enqueue_hits(3)
    rt.run()
    assert elem.seen == [0, 1, 2]


def test_scheduler_queue_stats():
    rt, elem, pe = _enqueue_hits(4)
    q = pe.queue
    assert q.max_occupancy == 4
    assert q.enqueued == 4
    rt.run()
    assert q.dequeues == 4
    # occupancy recorded at dequeue (before removing): 4, 3, 2, 1
    assert q.occupancy_sum == 10
    assert q.occupancy_sum / q.dequeues == pytest.approx(2.5)


class Worker(Chare):
    def __init__(self):
        self.times = []

    def tick(self):
        self.times.append(self.now)

    def busy(self, dt):
        self.charge(dt)
        self.times.append(self.now)


def test_one_message_at_a_time():
    """Two queued entries on one PE serialize; their observed times
    differ by at least the scheduling overhead."""
    rt = Runtime(ABE, n_pes=1)
    arr = rt.create_array(Worker, dims=(1,))
    arr.proxy[0].tick()
    arr.proxy[0].tick()
    rt.run()
    t1, t2 = arr.element(0).times
    charm = ABE.charm
    assert t2 - t1 >= charm.sched_overhead


def test_queue_occupancy_surcharge():
    """Messages dequeued from a deeper queue cost more (the paper's
    queue-occupancy effect) — total time for N messages grows faster
    than N x single-message cost."""

    def total_time(n):
        rt = Runtime(ABE, n_pes=1)
        arr = rt.create_array(Worker, dims=(1,))
        for _ in range(n):
            arr.proxy[0].tick()
        rt.run()
        return rt.now

    t10 = total_time(10)
    t1 = total_time(1)
    assert t10 > 10 * t1


def test_busy_until_prevents_overlap():
    rt = Runtime(ABE, n_pes=1)
    arr = rt.create_array(Worker, dims=(1,))
    arr.proxy[0].busy(1e-3)
    arr.proxy[0].busy(1e-3)
    rt.run()
    t1, t2 = arr.element(0).times
    assert t2 - t1 >= 1e-3


def test_rts_copy_charged_on_bgp_only():
    """The BG/P two-sided path charges the saturating receive copy;
    Infiniband does not."""

    def delivery_time(machine):
        from repro.charm import CustomMap

        rt = Runtime(machine, n_pes=2 * machine.cores_per_node)
        arr = rt.create_array(
            Worker, dims=(2,),
            mapping=CustomMap(lambda idx, dims, n: 0 if idx[0] == 0 else n - 1),
        )

        class Sender(Chare):
            def go(self):
                arr.proxy[1].tick_payload(Payload.virtual(20_000))

        class W2(Worker):
            pass

        return rt

    # direct comparison via PE cost formula: construct messages and
    # inspect the trace instead (simpler): BGP default path must charge
    # more per delivered byte than IB at sizes below the saturation cap
    from repro.apps.pingpong import charm_pingpong

    bgp_small = charm_pingpong(SURVEYOR, 100, 20).rtt
    bgp_mid = charm_pingpong(SURVEYOR, 20_000, 20).rtt
    wire = 19_900 * SURVEYOR.net.beta * 2
    # the extra beyond wire time includes the rts copy (~2x1.3e-4 us/B)
    extra = (bgp_mid - bgp_small) - wire
    assert extra > 19_900 * SURVEYOR.charm.rts_copy_per_byte  # both directions


def test_direct_queue_bypasses_scheduler_costs():
    """BG/P CkDirect completions cost handler+callback, not a full
    scheduler dispatch: with identical wire, ckd < charm messages."""
    from repro.apps.pingpong import charm_pingpong, ckdirect_pingpong

    msg = charm_pingpong(SURVEYOR, 1000, 20).rtt
    ckd = ckdirect_pingpong(SURVEYOR, 1000, 20).rtt
    assert ckd < msg
