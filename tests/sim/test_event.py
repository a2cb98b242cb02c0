"""The event key and callback contract, observed through the queue.

An event is a ``(time, priority, seq, fn, args)`` queue entry: it fires
in key order and calls ``fn(*args)``.
"""

from repro.sim import Simulator


def _fire_order(*entries):
    """Queue ``(time, priority, tag)`` entries in the given order and
    return the tags in firing order."""
    sim = Simulator()
    fired = []
    for time, priority, tag in entries:
        sim.at(time, fired.append, tag, priority=priority)
    sim.run()
    return fired


def test_ordering_by_time():
    assert _fire_order((2.0, 0, "late"), (1.0, 0, "early")) == ["early", "late"]


def test_ordering_by_priority_within_time():
    # priority outranks the order of scheduling (seq)
    assert _fire_order((1.0, 0, "queued-first"), (1.0, -1, "urgent")) == [
        "urgent", "queued-first"]


def test_ordering_by_seq_within_time_and_priority():
    assert _fire_order((1.0, 0, "a"), (1.0, 0, "b")) == ["a", "b"]


def test_fire_invokes_with_args():
    sim = Simulator()
    got = []
    sim.at(0.0, lambda *a: got.append(a), 1, 2)
    sim.run()
    assert got == [(1, 2)]
