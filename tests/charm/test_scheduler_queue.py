"""SchedulerQueue occupancy statistics and DirectItem cost charging.

The queue's occupancy counters are the paper's quantitative handle on
scheduling overhead (finer grain → deeper queues → more overhead), and
DirectItem is the BG/P path that bypasses the queue entirely — so both
must account exactly.
"""

import pytest

from repro.charm import Runtime
from repro.charm.message import Message
from repro.charm.scheduler import DirectItem, SchedulerQueue
from repro.network.params import SURVEYOR


def _msg(i: int) -> Message:
    return Message(array_id=0, index=(0,), method=f"m{i}", args=(), nbytes=8,
                   src_pe=0, send_time=0.0)


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
        q = SchedulerQueue()
        msgs = [_msg(i) for i in range(4)]
        for m in msgs:
            q.push(m)
        assert [q.pop() for _ in range(4)] == msgs

    def test_max_occupancy_tracks_high_water_mark(self):
        q = SchedulerQueue()
        q.push(_msg(0))
        q.push(_msg(1))
        q.push(_msg(2))
        q.pop()
        q.pop()
        q.push(_msg(3))
        assert q.max_occupancy == 3  # the earlier peak, not current depth
        assert len(q) == 2

    def test_mean_occupancy_is_depth_seen_at_dequeue(self):
        q = SchedulerQueue()
        for i in range(3):
            q.push(_msg(i))
        # depths observed at the three pops: 3, 2, 1
        for _ in range(3):
            q.pop()
        assert q.occupancy_sum / q.dequeues == pytest.approx(2.0)
        assert q.occupancy_sum == 6
        assert q.dequeues == 3

    def test_interleaved_push_pop_occupancy(self):
        q = SchedulerQueue()
        q.push(_msg(0))
        q.pop()           # depth 1
        q.push(_msg(1))
        q.push(_msg(2))
        q.pop()           # depth 2
        q.pop()           # depth 1
        assert q.enqueued == 3
        assert q.occupancy_sum / q.dequeues == pytest.approx((1 + 2 + 1) / 3)
        assert q.max_occupancy == 2

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            SchedulerQueue().pop()


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
