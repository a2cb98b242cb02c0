"""Property-based equivalence of the event-queue implementations.

The load-bearing claim behind ``--eventq`` being a pure wall-clock
knob: every implementation pops the identical ``(time, priority,
seq)`` sequence under arbitrary interleavings of ``schedule`` and
``run_before`` windows — including scheduling performed *from inside
running callbacks*, which is where the calendar queue's mid-rung
insort path lives.
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

# Each op runs inside a driver callback; a "chain" op's event schedules
# one more event from its own callback.
#   ("schedule" | "chain", delay, priority)
_op = st.tuples(
    st.sampled_from(["schedule", "chain"]),
    st.floats(min_value=0.0, max_value=2e-5, allow_nan=False),
    st.integers(min_value=-2, max_value=2),
)

programs = st.lists(_op, min_size=1, max_size=40)

#: run_before window bounds, applied before the final run().
window_bounds = st.lists(st.floats(min_value=0.0, max_value=1.5e-4,
                                   allow_nan=False), max_size=6)


def _execute(sim_factory, prog, bounds):
    """Run a program with ops firing from inside driver callbacks."""
    sim = sim_factory()
    fired = []
    created = [0]

    def leaf(i):
        fired.append((sim.now, "leaf", i))

    def link(i, delay, prio):
        fired.append((sim.now, "link", i))
        sim.schedule(delay / 2, leaf, i, priority=-prio)

    def do(op):
        kind, delay, prio = op
        fired.append((sim.now, kind))
        i = created[0]
        created[0] += 1
        if kind == "schedule":
            sim.schedule(delay, leaf, i, priority=prio)
        else:
            sim.schedule(delay, link, i, delay, prio, priority=prio)

    for i, op in enumerate(prog):
        # driver events interleave with the ops' own events in time
        sim.schedule(i * 3e-6, do, op)
    for bound in sorted(bounds):
        sim.run_before(bound)
        fired.append((sim.now, "window", sim.pending))
    sim.run()
    return fired, sim.events_processed, sim.now, sim.pending


@given(programs, window_bounds)
@settings(max_examples=120, deadline=None)
def test_all_impls_pop_identical_sequences(prog, bounds):
    reference = _execute(Simulator, prog, bounds)
    for impl in IMPLS:
        assert _execute(impl, prog, bounds) == reference, impl.__name__


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
