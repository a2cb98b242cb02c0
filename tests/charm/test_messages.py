"""Unit tests for Payload and Message plumbing."""

import numpy as np
import pytest

from repro import ABE, Chare, Runtime
from repro.charm import CharmError, CustomMap, Payload
from repro.charm.message import Message


def test_payload_needs_backing():
    with pytest.raises(CharmError):
        Payload()


def test_payload_nbytes_consistency_check():
    with pytest.raises(CharmError):
        Payload(data=np.zeros(4), nbytes=999)
    p = Payload(data=np.zeros(4), nbytes=32)
    assert p.nbytes == 32


def test_virtual_payload():
    p = Payload.virtual(512)
    assert p.is_virtual
    assert p.nbytes == 512
    assert not p.pack  # virtual helper is pre-packed by convention


def test_marshalled_snapshots_packed_data():
    arr = np.arange(4.0)
    p = Payload(data=arr, pack=True)
    m = p.marshalled()
    arr[0] = 99.0
    assert m.data[0] == 0.0
    assert not m.pack  # already marshalled


def test_marshalled_noop_for_unpacked():
    arr = np.arange(4.0)
    p = Payload(data=arr, pack=False)
    assert p.marshalled() is p


class Got(Chare):
    def __init__(self):
        self.got = None

    def take(self, *args):
        self.got = args

    def relay(self, *args):
        self.proxy[1].take(*args)


def _relay(*args):
    """Send ``args`` from PE 0 to an element on another PE; returns
    the runtime and what the receiver got."""
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(Got, dims=(2,),
                          mapping=CustomMap(lambda idx, dims, n: idx[0]))
    arr.proxy[0].relay(*args)
    rt.run()
    return rt, arr.elements[(1,)].got


def test_wrap_unwrap_roundtrip():
    arr = np.arange(3.0)
    explicit = Payload(data=np.ones(2), pack=False)
    _, out = _relay(arr, explicit, 5, "x")
    assert isinstance(out[0], np.ndarray)  # auto-wrapped, then unwrapped
    assert np.array_equal(out[0], arr)
    assert out[0] is not arr  # marshalled: a snapshot travelled
    assert out[1] is explicit
    assert out[2:] == (5, "x")


def test_payload_bytes_sums_payloads_only():
    rt, got = _relay(Payload.virtual(100), Payload.virtual(28), 7, "meta")
    # The host injection and the relay each carry 128 payload bytes.
    assert rt.trace.counters["charm.msg_bytes"] == 2 * 128
    assert rt.trace.counters["charm.msgs_sent"] == 2
    assert [a.nbytes for a in got[:2]] == [100, 28]


def test_message_ids_unique():
    a = Message(1, (0,), "m", (), 0, None, 0.0)
    b = Message(1, (0,), "m", (), 0, None, 0.0)
    assert a.id != b.id


def test_message_fields():
    m = Message(3, (1, 2), "go", ("a",), 64, 5, 1.5e-6, is_internal=True)
    assert m.array_id == 3
    assert m.index == (1, 2)
    assert m.method == "go"
    assert m.nbytes == 64
    assert m.src_pe == 5
    assert m.is_internal
