"""Typed-error tests: put validation and the use-before-ready race."""

import numpy as np
import pytest

from repro import ABE, Buffer, Runtime
from repro import ckdirect as ckd
from repro.charm.errors import (
    ChannelStateError,
    CkDirectError,
    PutMismatchError,
    PutRaceError,
)
from repro.ckdirect.handle import ChannelState

from tests.ckdirect.channel_helpers import CROSS, Endpoint


def _pair():
    rt = Runtime(ABE, n_pes=2 * ABE.cores_per_node)
    arr = rt.create_array(Endpoint, dims=(2,), mapping=CROSS)
    return rt, arr, arr.element(0), arr.element(1)


# ---------------------------------------------------------------------------
# assoc_local validation (PutMismatchError)
# ---------------------------------------------------------------------------


def test_assoc_rejects_size_mismatch():
    rt, arr, recv, send = _pair()
    handle = recv.make_handle()
    small = Buffer(array=np.zeros(4))
    with pytest.raises(PutMismatchError, match="32B"):
        ckd.assoc_local(send, handle, small)
    # the failed assoc must not half-wire the channel
    assert handle.src_pe is None and handle.src_buffer is None


def test_assoc_rejects_dtype_mismatch():
    rt, arr, recv, send = _pair()
    handle = recv.make_handle()  # 8 x float64 = 64B
    same_bytes = Buffer(array=np.ones(16, dtype=np.float32))  # 64B too
    with pytest.raises(PutMismatchError, match="dtype"):
        ckd.assoc_local(send, handle, same_bytes)


def test_assoc_twice_is_a_state_error():
    rt, arr, recv, send = _pair()
    handle = recv.make_handle()
    ckd.assoc_local(send, handle, send.send_buf)
    with pytest.raises(ChannelStateError, match="twice"):
        ckd.assoc_local(send, handle, send.send_buf)


def test_put_before_assoc():
    rt, arr, recv, send = _pair()
    handle = recv.make_handle()
    with pytest.raises(CkDirectError, match="before assoc_local"):
        arr.proxy[1].do_put(handle)
        rt.run()


# ---------------------------------------------------------------------------
# The use-before-ready race (PutRaceError)
# ---------------------------------------------------------------------------


def _consumed_channel():
    """Drive one full phase so the receiver owns the buffer again:
    put -> delivered -> callback fired -> CONSUMED, no ready_mark yet."""
    rt, arr, recv, send = _pair()
    handle = recv.make_handle()
    ckd.assoc_local(send, handle, send.send_buf)
    arr.proxy[1].do_put(handle)
    rt.run()
    assert handle.state is ChannelState.CONSUMED
    assert not handle.sentinel_armed
    return rt, arr, recv, send, handle


def test_overlapping_phases_race_is_detected():
    """Two overlapping phases: the receiver consumed phase 1's data but
    has not re-armed (``ready_mark``) when phase 2's put lands.

    The state machine blocks the *issue* on this simulator, but real
    RDMA has no such guard — a write posted by a racing sender lands
    regardless.  Emulate that errant landing by driving the delivery
    path directly: the use-before-ready check (always on) must raise
    instead of silently overwriting data the receiver still owns.
    """
    rt, arr, recv, send, handle = _consumed_channel()
    # Phase 2 on the sender, before the receiver re-armed: the strict
    # state machine already refuses to issue ...
    with pytest.raises(ChannelStateError, match="consumed"):
        arr.proxy[1].do_put(handle)
        rt.run()
    # ... and the landing itself (the errant RDMA write) is caught too.
    send.send_arr[:] = 2.0
    with pytest.raises(PutRaceError, match="race"):
        handle.deliver()
    # the racing payload must not have landed
    assert not np.array_equal(recv.recv_arr, send.send_arr)
