"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SimulationError, Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.events_processed == 0


def test_schedule_and_run_order():
    sim = Simulator()
    fired = []
    sim.schedule(2e-6, fired.append, "late")
    sim.schedule(1e-6, fired.append, "early")
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == pytest.approx(2e-6)


def test_ties_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(1e-6, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_priority_orders_within_tie():
    sim = Simulator()
    fired = []
    sim.schedule(1e-6, fired.append, "normal", priority=0)
    sim.schedule(1e-6, fired.append, "urgent", priority=-1)
    sim.run()
    assert fired == ["urgent", "normal"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1e-9, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5e-6, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1e-6, lambda: None)


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1e-6, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == pytest.approx(5e-6)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.schedule(1e-6, fired.append, 1)
    sim.schedule(3e-6, fired.append, 3)
    sim.run(until=2e-6)
    assert fired == [1]
    assert sim.now == pytest.approx(2e-6)
    sim.run()
    assert fired == [1, 3]


def test_run_until_includes_boundary_event():
    sim = Simulator()
    fired = []
    sim.schedule(2e-6, fired.append, "x")
    sim.run(until=2e-6)
    assert fired == ["x"]


def test_run_advances_clock_to_until_when_empty():
    sim = Simulator()
    sim.run(until=7e-6)
    assert sim.now == pytest.approx(7e-6)


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i * 1e-6, lambda: None)
    sim.run(max_events=3)
    assert sim.events_processed == 3
    assert sim.pending == 7


def test_cancelled_event_skipped():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1e-6, fired.append, "cancelled")
    sim.schedule(2e-6, fired.append, "kept")
    ev.cancel()
    sim.run()
    assert fired == ["kept"]


def test_cancelled_events_not_counted():
    sim = Simulator()
    ev = sim.schedule(1e-6, lambda: None)
    ev.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1e-6, fired.append, 1)
    sim.schedule(2e-6, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as e:
            errors.append(e)

    sim.schedule(1e-6, nested)
    sim.run()
    assert len(errors) == 1


def test_drain_raises_on_runaway():
    sim = Simulator()

    def forever():
        sim.schedule(1e-6, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.drain(max_events=100)


def test_determinism_across_runs():
    def run_once():
        sim = Simulator()
        order = []
        for i in range(50):
            sim.schedule((i % 7) * 1e-6, order.append, i)
        sim.run()
        return order

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Hot-path optimization: pending_active, lazy compaction
# ---------------------------------------------------------------------------


def test_pending_active_excludes_cancelled():
    sim = Simulator()
    evs = [sim.schedule(i * 1e-6, lambda: None) for i in range(1, 6)]
    assert sim.pending == 5
    assert sim.pending_active == 5
    evs[0].cancel()
    evs[3].cancel()
    assert sim.pending == 5          # heap still holds the tombstones
    assert sim.pending_active == 3
    sim.run()
    assert sim.pending_active == 0
    assert sim.events_processed == 3


def test_double_cancel_counts_once():
    sim = Simulator()
    ev = sim.schedule(1e-6, lambda: None)
    ev.cancel()
    ev.cancel()
    assert sim.pending_active == 0
    sim.run()


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    box = []

    def fire_and_keep():
        box.append(sim.schedule(1e-6, box.append, "late"))

    sim.schedule(1e-6, fire_and_keep)
    sim.run()
    assert box[-1] == "late"
    # cancelling the already-fired event must not disturb accounting
    box[0].cancel()
    assert sim.pending_active == 0
    sim.schedule(1e-6, lambda: None)
    assert sim.pending_active == 1


def test_drain_ignores_cancelled_leftovers():
    sim = Simulator()
    keep = sim.schedule(1e-6, lambda: None)
    dead = sim.schedule(2e-6, lambda: None)
    dead.cancel()
    sim.drain()  # must not raise: only a cancelled tombstone remains
    assert sim.events_processed == 1
    assert keep.cancelled is False


def test_lazy_compaction_shrinks_heap():
    sim = Simulator()
    far = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(300)]
    for ev in far:
        ev.cancel()
    # The compaction threshold has passed: tombstones were dropped.
    assert sim.pending < 300
    assert sim.pending_active == 0
    sim.run()
    assert sim.events_processed == 0


def test_compaction_preserves_live_events():
    sim = Simulator()
    fired = []
    live = [sim.schedule((i + 1) * 1e-6, fired.append, i) for i in range(50)]
    dead = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(400)]
    for ev in dead:
        ev.cancel()
    assert sim.pending_active == len(live)
    sim.run()
    assert fired == list(range(50))


def test_compaction_inside_run_does_not_strand_the_loop():
    """Regression: ``_compact()`` used to rebind ``self._heap`` to a
    fresh list, stranding the local alias ``run()`` iterates — events
    scheduled after an in-callback compaction landed on the new list
    and the loop returned with them still pending.  Mass cancellation
    from inside a callback (the reliability layer cancels an RTO timer
    per ack) is exactly what triggers compaction mid-run."""
    sim = Simulator()
    fired = []
    victims = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(200)]
    survivors = [sim.schedule(2.0 + i * 1e-6, fired.append, i)
                 for i in range(40)]

    def cancel_and_continue():
        for ev in victims:  # > half the heap: compacts at least once
            ev.cancel()
        sim.schedule(1e-6, fired.append, "after")

    sim.schedule(1e-6, cancel_and_continue)
    sim.run()
    assert fired == ["after"] + list(range(40))
    assert sim.pending == 0
    assert sim.pending_active == 0


# ---------------------------------------------------------------------------
# NaN / negative-delay rejection
# ---------------------------------------------------------------------------


def test_schedule_rejects_nan_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_at_rejects_nan_time():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.at(float("nan"), lambda: None)


# ---------------------------------------------------------------------------
# Parallel-engine primitives: next_event_time, run_before
# ---------------------------------------------------------------------------


def test_next_event_time_empty_heap_is_inf():
    sim = Simulator()
    assert sim.next_event_time() == float("inf")


def test_next_event_time_skips_cancelled_tombstones():
    sim = Simulator()
    dead = sim.schedule(1e-6, lambda: None)
    sim.schedule(2e-6, lambda: None)
    dead.cancel()
    assert sim.next_event_time() == pytest.approx(2e-6)
    assert sim.pending_active == 1
    sim.run()
    assert sim.events_processed == 1


def test_run_before_bound_is_strict():
    sim = Simulator()
    fired = []
    sim.schedule(1e-6, fired.append, "in")
    sim.schedule(2e-6, fired.append, "at-bound")
    sim.run_before(2e-6)
    assert fired == ["in"]
    assert sim.pending_active == 1
    sim.run_before(2e-6 + 1e-9)
    assert fired == ["in", "at-bound"]


def test_run_before_does_not_advance_clock_to_bound():
    # A later window may admit events between now and the old bound,
    # so the clock must stay at the last fired event.
    sim = Simulator()
    sim.schedule(1e-6, lambda: None)
    sim.run_before(5e-6)
    assert sim.now == pytest.approx(1e-6)
    fired = []
    sim.at(3e-6, fired.append, "between")  # between now and the old bound
    sim.run_before(5e-6)
    assert fired == ["between"]


def test_run_before_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run_before(1.0)
        except SimulationError as e:
            errors.append(e)

    sim.schedule(1e-6, nested)
    sim.run_before(1.0)
    assert len(errors) == 1


def test_run_before_counts_events_and_skips_cancelled():
    sim = Simulator()
    dead = sim.schedule(1e-6, lambda: None)
    sim.schedule(2e-6, lambda: None)
    dead.cancel()
    sim.run_before(3e-6)
    assert sim.events_processed == 1
    assert sim.pending == 0


# ---------------------------------------------------------------------------
# Event bursts x priority x in-callback cancellation across _compact
# ---------------------------------------------------------------------------


def test_batch_events_survive_in_callback_compaction():
    """A burst of events scheduled back to back (including an
    urgent-priority one) must survive a compaction triggered from
    inside a callback, fire in order, and honour in-callback
    cancellation of burst members."""
    sim = Simulator()
    fired = []
    victims = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(200)]
    batch = [sim.at(2.0 + i * 1e-6, fired.append, i) for i in range(10)]
    sim.at(2.0, fired.append, "u", priority=-1)

    def cancel_and_cull():
        for ev in victims:  # > half the heap: compacts at least once
            ev.cancel()
        batch[3].cancel()   # a burst member, after the compaction
        sim.at(3.0, fired.append, "late")

    sim.schedule(1e-6, cancel_and_cull)
    sim.run()
    assert fired == ["u"] + [i for i in range(10) if i != 3] + ["late"]
    assert sim.pending == 0
    assert sim.pending_active == 0


def test_batch_member_cancelled_before_compaction_stays_dead():
    # Cancel a burst member first, then trigger compaction from a
    # callback: the tombstone must not resurrect or double-count.
    sim = Simulator()
    fired = []
    batch = [sim.at(2.0 + i * 1e-6, fired.append, i, priority=-2)
             for i in range(6)]
    batch[0].cancel()
    victims = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(200)]

    def cull():
        for ev in victims:
            ev.cancel()

    sim.schedule(1e-6, cull)
    sim.run()
    assert fired == [1, 2, 3, 4, 5]
    assert sim.pending_active == 0
