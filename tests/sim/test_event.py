"""Unit tests for Event ordering and lifecycle."""

from repro.sim.event import Event


def _ev(time, priority=0, seq=0):
    return Event(time, priority, seq, lambda: None, ())


def test_ordering_by_time():
    assert _ev(1.0) < _ev(2.0)
    assert not (_ev(2.0) < _ev(1.0))


def test_ordering_by_priority_within_time():
    assert _ev(1.0, priority=-1, seq=5) < _ev(1.0, priority=0, seq=1)


def test_ordering_by_seq_within_time_and_priority():
    assert _ev(1.0, seq=1) < _ev(1.0, seq=2)


def test_cancel_is_idempotent():
    ev = _ev(1.0)
    assert not ev.cancelled
    ev.cancel()
    ev.cancel()
    assert ev.cancelled


def test_fire_invokes_with_args():
    got = []
    ev = Event(0.0, 0, 0, lambda *a: got.append(a), (1, 2))
    ev.fire()
    assert got == [(1, 2)]


def test_cancelled_event_does_not_fire():
    got = []
    ev = Event(0.0, 0, 0, got.append, ("x",))
    ev.cancel()
    ev.fire()
    assert got == []


def test_sort_key_tuple():
    ev = _ev(2.5, priority=1, seq=7)
    assert ev.sort_key() == (2.5, 1, 7)
