"""Unit tests for the §6 accumulating-channel extension."""

import numpy as np
import pytest

from repro import ABE, Runtime
from repro import ckdirect as ckd
from repro.ckdirect.ext import ACCUMULATE_OPS, create_accumulate_handle

from tests.ckdirect.channel_helpers import CROSS, Endpoint


def _acc_setup(op="sum", initial=None):
    rt = Runtime(ABE, n_pes=2 * ABE.cores_per_node)

    class AccRecv(Endpoint):
        def __init__(self):
            super().__init__()
            if initial is not None:
                self.recv_arr[:] = initial

        def make_acc(self, op_):
            self.handle = create_accumulate_handle(
                self, self.recv_buf, -1.0, self.on_data, op=op_
            )
            return self.handle

    arr = rt.create_array(AccRecv, dims=(2,), mapping=CROSS)
    recv, send = arr.element(0), arr.element(1)
    handle = recv.make_acc(op)
    ckd.assoc_local(send, handle, send.send_buf)
    return rt, arr, recv, send, handle


def test_accumulate_sum():
    rt, arr, recv, send, handle = _acc_setup("sum", initial=10.0)
    arr.proxy[1].do_put(handle)
    rt.run()
    assert np.array_equal(recv.recv_arr, 10.0 + send.send_arr)


def test_accumulate_preserves_trailing_partial():
    """The displaced trailing element must re-enter the combination
    (the sentinel slot time-shares with data)."""
    rt, arr, recv, send, handle = _acc_setup("sum", initial=5.0)
    arr.proxy[1].do_put(handle)
    rt.run()
    assert recv.recv_arr[-1] == pytest.approx(5.0 + send.send_arr[-1])


def test_accumulate_max():
    rt, arr, recv, send, handle = _acc_setup("max", initial=4.5)
    arr.proxy[1].do_put(handle)
    rt.run()
    expected = np.maximum(np.full(8, 4.5), send.send_arr)
    assert np.array_equal(recv.recv_arr, expected)


def test_accumulate_multiple_rounds():
    rt, arr, recv, send, handle = _acc_setup("sum", initial=0.0)
    for k in range(3):
        if k:
            # re-arm between rounds (while armed, the trailing slot
            # holds the sentinel and the partial is parked aside)
            arr.proxy[0].do_ready(handle)
            rt.run()
        arr.proxy[1].do_put(handle)
        rt.run()
    assert np.array_equal(recv.recv_arr, 3 * send.send_arr)


def test_accumulate_rejects_unknown_op():
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(Endpoint, dims=(1,))
    with pytest.raises(ckd.CkDirectError, match="unknown accumulate op"):
        create_accumulate_handle(
            arr.element(0), arr.element(0).recv_buf, -1.0, lambda _: None,
            op="xor",
        )


def test_accumulate_ops_registry():
    assert set(ACCUMULATE_OPS) == {"sum", "max", "min"}
