"""Unit tests for the two-sided matching engine (pure bookkeeping)."""

from repro.mpi.p2p import ANY_SOURCE, ANY_TAG, Arrival, Matcher, RecvPost


def _recv(src=ANY_SOURCE, tag=ANY_TAG, t=0.0):
    return RecvPost(src, tag, lambda a: None, t)


def _arr(src=0, tag=0, nbytes=8, t=0.0):
    return Arrival(src, tag, nbytes, t)


def test_posted_recv_matches_arrival():
    m = Matcher()
    r = _recv(src=1, tag=5)
    assert m.post(r) is None
    got = m.arrive(_arr(src=1, tag=5))
    assert got is r
    assert len(m.posted) == 0


def test_unexpected_then_post():
    m = Matcher()
    a = _arr(src=2, tag=9)
    assert m.arrive(a) is None
    assert len(m.unexpected) == 1
    got = m.post(_recv(src=2, tag=9))
    assert got is a
    assert len(m.unexpected) == 0


def test_wildcard_source():
    m = Matcher()
    m.post(_recv(src=ANY_SOURCE, tag=3))
    assert m.arrive(_arr(src=7, tag=3)) is not None


def test_wildcard_tag():
    m = Matcher()
    m.post(_recv(src=4, tag=ANY_TAG))
    assert m.arrive(_arr(src=4, tag=11)) is not None


def test_mismatched_tag_does_not_match():
    m = Matcher()
    m.post(_recv(src=1, tag=5))
    assert m.arrive(_arr(src=1, tag=6)) is None
    assert len(m.posted) == 1
    assert len(m.unexpected) == 1


def test_posted_order_fifo():
    m = Matcher()
    r1, r2 = _recv(tag=ANY_TAG), _recv(tag=ANY_TAG)
    m.post(r1)
    m.post(r2)
    assert m.arrive(_arr()) is r1
    assert m.arrive(_arr()) is r2


def test_unexpected_order_fifo():
    m = Matcher()
    a1, a2 = _arr(tag=1), _arr(tag=1)
    m.arrive(a1)
    m.arrive(a2)
    assert m.post(_recv(tag=1)) is a1
    assert m.post(_recv(tag=1)) is a2


def test_specific_recv_skips_nonmatching_unexpected():
    m = Matcher()
    a_wrong = _arr(src=9, tag=1)
    a_right = _arr(src=2, tag=1)
    m.arrive(a_wrong)
    m.arrive(a_right)
    assert m.post(_recv(src=2, tag=1)) is a_right
    assert len(m.unexpected) == 1


def test_rendezvous_arrival_flag():
    a = Arrival(0, 0, 8, 0.0, begin_data=lambda r: None)
    assert a.is_rendezvous
    assert not _arr().is_rendezvous
