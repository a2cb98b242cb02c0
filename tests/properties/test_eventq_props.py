"""Property-based equivalence of the event-queue implementations.

The load-bearing claim behind ``--eventq`` being a pure wall-clock
knob: every implementation pops the identical ``(time, priority,
seq)`` sequence under arbitrary interleavings of ``schedule`` and
``cancel`` — including operations performed *from inside running
callbacks*, which is where the calendar queue's mid-rung insort and
in-place compaction paths live.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.eventq import (
    CalendarSimulator,
    CompiledSimulator,
    compiled_available,
)

IMPLS = [CalendarSimulator]
if compiled_available():
    IMPLS.append(CompiledSimulator)

# An op either runs at the top level or inside a driver callback:
#   ("schedule", delay, priority)
#   ("cancel", index-into-created-events)
_op = st.one_of(
    st.tuples(st.just("schedule"),
              st.floats(min_value=0.0, max_value=2e-5, allow_nan=False),
              st.integers(min_value=-2, max_value=2)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
)

programs = st.lists(_op, min_size=1, max_size=40)


def _execute(sim_factory, prog):
    """Run a program with ops firing from inside driver callbacks."""
    sim = sim_factory()
    fired = []
    created = []

    def leaf(i):
        fired.append((sim.now, "leaf", i))

    def do(op):
        kind = op[0]
        fired.append((sim.now, kind))
        if kind == "schedule":
            _, delay, prio = op
            created.append(
                sim.schedule(delay, leaf, len(created), priority=prio))
        else:
            _, idx = op
            if created:
                created[idx % len(created)].cancel()

    for i, op in enumerate(prog):
        # driver events interleave with the ops' own events in time
        sim.schedule(i * 3e-6, do, op)
    sim.run()
    return fired, sim.events_processed, sim.now, sim.pending


@given(programs)
@settings(max_examples=120, deadline=None)
def test_all_impls_pop_identical_sequences(prog):
    reference = _execute(Simulator, prog)
    for impl in IMPLS:
        assert _execute(impl, prog) == reference, impl.__name__


@given(programs, st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_step_drain_matches_run(prog, steps):
    """Mixing step() with run() cannot change the fired sequence."""
    def stepped(factory):
        sim = factory()
        fired = []
        for i, op in enumerate(prog):
            sim.schedule(i * 3e-6, fired.append, (op[0], i))
        for _ in range(steps):
            if not sim.step():
                break
        sim.run()
        return fired, sim.events_processed

    reference = stepped(Simulator)
    for impl in IMPLS:
        assert stepped(impl) == reference, impl.__name__


@given(programs)
@settings(max_examples=40, deadline=None)
def test_run_before_windows_match(prog):
    """Draining through a sequence of run_before windows (the parallel
    engine's access pattern) pops the same events as one run()."""
    def windows(factory):
        sim = factory()
        fired = []
        for i, op in enumerate(prog):
            sim.schedule(i * 3e-6, fired.append, (op[0], i))
        bound = 0.0
        while sim.next_event_time() != float("inf"):
            bound = max(bound + 4e-6, sim.next_event_time() + 1e-9)
            sim.run_before(bound)
        return fired, sim.events_processed

    reference = windows(Simulator)
    for impl in IMPLS:
        assert windows(impl) == reference, impl.__name__
