"""Scheduler-queue occupancy statistics and DirectItem cost charging.

The queue's occupancy counters are the paper's quantitative handle on
scheduling overhead (finer grain → deeper queues → more overhead), and
DirectItem is the BG/P path that bypasses the queue entirely — so both
must account exactly.  The PE keeps the statistics where it touches
the queue: ``PE.enqueue`` counts and tracks the high-water mark, and
each scheduler pass adds the depth it saw at dequeue.
"""

import pytest

from repro.charm import Chare, Runtime
from repro.charm.message import Message
from repro.charm.scheduler import DirectItem, SchedulerQueue
from repro.network.params import SURVEYOR


class Log(Chare):
    def __init__(self):
        self.seen = []

    def hit(self, tag):
        self.seen.append(tag)


def _one_pe():
    rt = Runtime(SURVEYOR, n_pes=1)
    arr = rt.create_array(Log, dims=(1,))
    return rt, arr.elements[(0,)], rt.pes[0]


def _enqueue(pe, elem, *tags):
    for tag in tags:
        pe.enqueue(Message(elem._array.id, (0,), "hit", (tag,), nbytes=8,
                           src_pe=0, send_time=0.0))


class TestSchedulerQueueStats:
    def test_empty_queue_stats(self):
        q = SchedulerQueue()
        assert len(q) == 0
        assert not q
        assert q.occupancy_sum == 0
        assert q.max_occupancy == 0
        assert q.enqueued == 0
        assert q.dequeues == 0

    def test_fifo_order(self):
        rt, elem, pe = _one_pe()
        _enqueue(pe, elem, 0, 1, 2, 3)
        rt.sim.run()
        assert elem.seen == [0, 1, 2, 3]

    def test_max_occupancy_tracks_high_water_mark(self):
        rt, elem, pe = _one_pe()
        _enqueue(pe, elem, 0, 1, 2)
        rt.sim.run()
        _enqueue(pe, elem, 3)
        q = pe.queue
        assert q.max_occupancy == 3  # the earlier peak, not current depth
        assert len(q) == 1
        assert q.enqueued == 4

    def test_mean_occupancy_is_depth_seen_at_dequeue(self):
        rt, elem, pe = _one_pe()
        _enqueue(pe, elem, 0, 1, 2)
        rt.sim.run()
        q = pe.queue
        # depths observed at the three dequeues: 3, 2, 1
        assert q.occupancy_sum / q.dequeues == pytest.approx(2.0)
        assert q.occupancy_sum == 6
        assert q.dequeues == 3

    def test_interleaved_push_pop_occupancy(self):
        rt, elem, pe = _one_pe()
        _enqueue(pe, elem, 0)
        rt.sim.run()      # depth 1
        _enqueue(pe, elem, 1, 2)
        rt.sim.run()      # depth 2, then 1
        q = pe.queue
        assert q.enqueued == 3
        assert q.occupancy_sum / q.dequeues == pytest.approx((1 + 2 + 1) / 3)
        assert q.max_occupancy == 2

    def test_pass_over_empty_queues_dequeues_nothing(self):
        rt, elem, pe = _one_pe()
        pe.kick()  # a wake with nothing queued
        rt.sim.run()
        for q in (pe.queue, pe.internal_queue):
            assert (q.enqueued, q.dequeues, q.occupancy_sum) == (0, 0, 0)
        assert elem.seen == []

    def test_internal_messages_keep_their_own_statistics(self):
        rt, elem, pe = _one_pe()
        _enqueue(pe, elem, 0)
        pe.enqueue(Message(elem._array.id, (0,), "hit", ("rts",), 8, 0, 0.0,
                           is_internal=True))
        rt.sim.run()
        assert elem.seen == ["rts", 0]  # RTS messages run first
        for q in (pe.queue, pe.internal_queue):
            assert (q.enqueued, q.dequeues, q.max_occupancy,
                    q.occupancy_sum) == (1, 1, 1, 1)


class TestDirectItemCharging:
    def test_cost_charged_before_callback_runs(self):
        rt = Runtime(SURVEYOR, n_pes=1)
        pe = rt.pes[0]
        seen = []
        cost = 3e-6
        # The callback runs *after* the handler cost is on the cursor.
        pe.push_direct(DirectItem(cost, lambda: seen.append(pe._cursor)))
        rt.sim.run()
        assert seen == [pytest.approx(cost)]
        assert pe.busy_time == pytest.approx(cost)

    def test_costs_accumulate_across_items(self):
        rt = Runtime(SURVEYOR, n_pes=1)
        pe = rt.pes[0]
        times = []
        for c in (1e-6, 2e-6, 4e-6):
            pe.push_direct(DirectItem(c, lambda: times.append(pe._cursor)))
        rt.sim.run()
        assert times == [pytest.approx(1e-6), pytest.approx(3e-6),
                         pytest.approx(7e-6)]
        assert pe.busy_time == pytest.approx(7e-6)
        assert rt.trace.counters.get("pe.direct_completions") == 3

    def test_direct_items_bypass_scheduler_queue(self):
        rt = Runtime(SURVEYOR, n_pes=1)
        pe = rt.pes[0]
        pe.push_direct(DirectItem(1e-6, lambda: None))
        rt.sim.run()
        # No message ever touched the FIFO: its stats stay untouched.
        assert pe.queue.enqueued == 0
        assert pe.queue.dequeues == 0
        assert pe.queue.max_occupancy == 0
