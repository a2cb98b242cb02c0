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


def test_run_before_bound_is_strict():
    sim = Simulator()
    fired = []
    sim.schedule(1e-6, fired.append, "in")
    sim.schedule(2e-6, fired.append, "at-bound")
    sim.run_before(2e-6)
    assert fired == ["in"]
    assert sim.pending == 1
    assert sim.events_processed == 1
    sim.run_before(2e-6 + 1e-9)
    assert fired == ["in", "at-bound"]
    assert sim.events_processed == 2


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
