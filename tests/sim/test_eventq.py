"""Unit tests for the pluggable event-queue layer.

Every implementation — heap reference, pure-Python calendar, and the
compiled core when built — must honor the complete
:class:`~repro.sim.engine.Simulator` contract: pop order, one-way
scheduling (``at``/``schedule`` return nothing and take ``priority``
as their only keyword), rejection semantics, ``run`` (to empty, with
no bound), ``run_before`` and ``next_event_time`` behavior, and
settable ``_now`` (the parallel engine's final-merge path writes it).
"""

import math

import pytest

import repro.sim.eventq as eventq_mod
from repro.config import EVENTQ_CHOICES, ConfigError, current, install
from repro.sim.engine import SimulationError, Simulator
from repro.sim.eventq import (
    CalendarSimulator,
    CompiledSimulator,
    compiled_available,
    eventq_name,
    make_simulator,
)

IMPLS = [Simulator, CalendarSimulator]
if compiled_available():
    IMPLS.append(CompiledSimulator)


@pytest.fixture(params=IMPLS, ids=lambda c: c.__name__)
def sim(request):
    return request.param()


# ---------------------------------------------------------------------------
# Core contract, per implementation
# ---------------------------------------------------------------------------


def test_pop_order_time_priority_seq(sim):
    fired = []
    sim.schedule(2e-6, fired.append, "late")
    sim.schedule(1e-6, fired.append, "tie-seq-a")
    sim.schedule(1e-6, fired.append, "tie-seq-b")
    sim.schedule(1e-6, fired.append, "tie-prio", priority=-1)
    sim.run()
    assert fired == ["tie-prio", "tie-seq-a", "tie-seq-b", "late"]
    assert sim.events_processed == 4
    assert sim.now == 2e-6


def test_schedule_rejects_negative_and_nan(sim):
    with pytest.raises(SimulationError, match="negative delay"):
        sim.schedule(-1e-9, lambda: None)
    with pytest.raises(SimulationError, match="negative delay"):
        sim.schedule(math.nan, lambda: None)
    assert sim.pending == 0


def test_at_rejects_past_and_nan(sim):
    sim.schedule(1e-6, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="past"):
        sim.at(0.5e-6, lambda: None)
    with pytest.raises(SimulationError, match="past"):
        sim.at(math.nan, lambda: None)


def test_scheduling_is_one_way(sim):
    assert sim.schedule(1e-6, lambda: None) is None
    assert sim.at(2e-6, lambda: None) is None
    assert sim.pending == 2


@pytest.mark.parametrize("call", ["at", "schedule"])
def test_keywords_other_than_priority_raise_and_admit_nothing(sim, call):
    """``priority`` is the only keyword ``at``/``schedule`` accept; any
    other is a TypeError that queues nothing."""
    fired = []
    sim.at(1e-6, fired.append, "pre")
    pending = sim.pending
    with pytest.raises(TypeError):
        getattr(sim, call)(2e-6, fired.append, "x", tag=1)
    with pytest.raises(TypeError):
        getattr(sim, call)(2e-6, fired.append, "x", priority=-1, tag=1)
    assert sim.pending == pending
    sim.at(2e-6, fired.append, "post")
    sim.run()
    assert fired == ["pre", "post"]


def test_rejected_time_admits_nothing(sim):
    fired = []
    sim.at(1e-6, fired.append, "pre")
    with pytest.raises(SimulationError):
        sim.at(math.nan, fired.append, "nan")
    with pytest.raises(SimulationError):
        sim.schedule(-1e-9, fired.append, "negative")
    assert sim.pending == 1
    sim.at(1e-6, fired.append, "tie")
    sim.run()
    assert fired == ["pre", "tie"]


def test_batch_tiebreak_is_submission_order(sim):
    """A burst of same-instant ``at`` calls (a handler's back-to-back
    puts) fires in submission order."""
    fired = []
    for i in range(8):
        sim.at(1e-6, fired.append, i)
    sim.run()
    assert fired == list(range(8))


def test_run_takes_no_bound(sim):
    """``run()`` runs to empty and ``run_before(bound)`` runs one
    window; a bound passed to ``run`` is refused before anything
    fires."""
    fired = []
    sim.at(1.0, fired.append, "a")
    for kwargs in ({"until": 2.0}, {"max_events": 1}):
        with pytest.raises(TypeError):
            sim.run(**kwargs)
    with pytest.raises(TypeError):
        sim.run(2.0)
    assert fired == [] and sim.pending == 1
    sim.run()
    assert fired == ["a"] and sim.now == 1.0


def test_run_before_is_strict(sim):
    fired = []
    sim.at(1.0, fired.append, "a")
    sim.at(2.0, fired.append, "b")
    sim.run_before(2.0)
    assert fired == ["a"]       # strictly below the bound
    assert sim.now == 1.0       # no clock jump to the bound
    sim.run_before(2.0 + 1e-12)
    assert fired == ["a", "b"]


def test_next_event_time_is_the_earliest_queued(sim):
    assert sim.next_event_time() == float("inf")
    sim.schedule(2e-6, lambda: None)
    sim.schedule(1e-6, lambda: None)
    assert sim.next_event_time() == 1e-6
    sim.run_before(1.5e-6)
    assert sim.next_event_time() == 2e-6
    sim.run()
    assert sim.next_event_time() == float("inf")


def test_now_is_settable(sim):
    # parallel._merge_final writes sim._now after a sharded run
    sim._now = 42.0
    assert sim.now == 42.0
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 43.0


def test_schedule_during_callback_same_time_lower_priority(sim):
    """An event scheduled *from a callback* at the current time with a
    lower priority than later-queued work must still fire in key
    order (exercises the calendar's mid-rung insort path)."""
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "inserted", priority=-5)

    sim.schedule(1e-6, first)
    sim.schedule(1e-6, fired.append, "second", priority=1)
    sim.run()
    assert fired == ["first", "inserted", "second"]


def test_long_rung_trims_consumed_prefix():
    """Draining a rung larger than the trim threshold keeps firing
    correctly (the calendar drops the consumed prefix mid-rung)."""
    sim = CalendarSimulator()
    n = eventq_mod._TRIM_POS + 512
    fired = []
    for i in range(n):
        sim.at(1e-6 + i * 1e-9, fired.append, i)
    sim.run()
    assert fired == list(range(n))
    assert sim.pending == 0


# ---------------------------------------------------------------------------
# Selection: make_simulator, auto as a build-time choice
# ---------------------------------------------------------------------------


def test_make_simulator_follows_config():
    with install(current().replace(eventq="calendar")):
        assert type(make_simulator()) is CalendarSimulator
        assert type(make_simulator("heap")) is Simulator  # explicit wins
    with pytest.raises(ConfigError, match="eventq must be one of"):
        make_simulator("splay")


def test_make_simulator_types(monkeypatch):
    monkeypatch.delenv("REPRO_EVENTQ", raising=False)
    assert type(make_simulator("heap")) is Simulator
    assert type(make_simulator("calendar")) is CalendarSimulator
    auto = make_simulator("auto")
    if compiled_available():
        assert type(auto) is CompiledSimulator
        assert type(make_simulator("compiled")) is CompiledSimulator
    else:
        assert type(auto) is Simulator


def test_compiled_request_without_build_raises(monkeypatch):
    monkeypatch.setattr(eventq_mod, "_ceventq", None)
    with pytest.raises(SimulationError, match="not.*built"):
        make_simulator("compiled")
    # auto degrades silently to the heap instead
    assert type(make_simulator("auto")) is Simulator


def test_eventq_names():
    assert Simulator().eventq_name == "heap"
    assert CalendarSimulator().eventq_name == "calendar"
    assert eventq_name(object()) == "object"
    if compiled_available():
        assert CompiledSimulator().eventq_name == "calendar-c"
    assert set(EVENTQ_CHOICES) == {"auto", "heap", "calendar", "compiled"}
