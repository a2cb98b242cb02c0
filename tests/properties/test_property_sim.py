"""Property-based tests for the DES core: event ordering is a total
order respecting time, priority, and FIFO among ties; the clock never
goes backwards."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.eventq import (
    CalendarSimulator,
    CompiledSimulator,
    compiled_available,
)

IMPLS = [Simulator, CalendarSimulator]
if compiled_available():
    IMPLS.append(CompiledSimulator)

delays = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
        st.integers(min_value=-2, max_value=2),
    ),
    min_size=1,
    max_size=60,
)


@given(delays)
@settings(max_examples=60, deadline=None)
def test_events_fire_in_total_order(specs):
    sim = Simulator()
    fired = []
    for i, (delay, prio) in enumerate(specs):
        sim.schedule(delay, lambda i=i: fired.append(i), priority=prio)
    sim.run()
    assert len(fired) == len(specs)
    keys = [(specs[i][0], specs[i][1], i) for i in fired]
    assert keys == sorted(keys)


@given(delays)
@settings(max_examples=40, deadline=None)
def test_clock_monotone(specs):
    sim = Simulator()
    stamps = []
    for delay, prio in specs:
        sim.schedule(delay, lambda: stamps.append(sim.now), priority=prio)
    sim.run()
    assert stamps == sorted(stamps)
    assert sim.now == max(d for d, _ in specs)


@given(delays, st.integers(min_value=1, max_value=59))
@settings(max_examples=40, deadline=None)
def test_run_until_is_prefix_of_full_run(specs, cut_idx):
    """Running one window up to a cut (``run_before``) and then to
    empty (``run``) fires exactly the full run's sequence, on every
    queue."""
    def schedule_all(sim, out):
        for i, (delay, prio) in enumerate(specs):
            sim.schedule(delay, lambda i=i: out.append(i), priority=prio)

    cut = sorted(d for d, _ in specs)[min(cut_idx, len(specs)) - 1]
    for impl in IMPLS:
        full_sim, full = impl(), []
        schedule_all(full_sim, full)
        full_sim.run()

        part_sim, part = impl(), []
        schedule_all(part_sim, part)
        part_sim.run_before(cut)
        assert all(specs[i][0] < cut for i in part)
        part_sim.run()
        assert part == full
        assert part_sim.events_processed == len(specs)
