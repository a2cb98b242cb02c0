"""Concrete MSG and CKD variants of the GSpace / PairCalculator chares.

The MSG pair follows the paper's description of the default
implementation exactly: the GS "copies the points into a message and
sends them to the PC, which copies the points into a contiguous data
buffer and increments a counter" (§5.1) — two copies plus a scheduler
trip per (state, plane, PC).

The CKD pair registers the points' destinations inside the PC operand
buffers as CkDirect channels at setup; per iteration each GS issues
bare puts and the PC's callback "counts the number of states that have
sent their points", enqueueing the multiply entry method when complete
— no copies, no per-message scheduling (§5.1).
"""

from __future__ import annotations

import numpy as np

from ...charm import Payload
from ... import ckdirect as ckd
from .config import OPENATOM_OOB
from .gspace import GSpaceBase
from .paircalc import PairCalcBase

# ---------------------------------------------------------------------------
# Message-based
# ---------------------------------------------------------------------------


class GSpaceMsg(GSpaceBase):
    """GSpace chare, message-based forward path."""
    def setup(self) -> None:
        """Entry method: wire channels / join the setup barrier."""
        self.contribute(callback=self.monitor.callback())

    def _send_points(self) -> None:
        cfg = self.cfg
        payload = (
            Payload(data=self.points, pack=True)
            if self.points is not None
            else Payload(nbytes=cfg.points_bytes, pack=True)
        )
        pc = self.pc_proxy
        for j in range(cfg.nblocks):  # I am a left-side state
            pc[(self.block, j, self.plane)].points_msg(
                payload, "left", self.offset
            )
        for i in range(cfg.nblocks):  # I am a right-side state
            pc[(i, self.block, self.plane)].points_msg(
                payload, "right", self.offset
            )


class PairCalcMsg(PairCalcBase):
    """PairCalculator chare, message-based inputs."""
    def setup(self) -> None:
        """Entry method: wire channels / join the setup barrier."""
        pass  # nothing to wire

    def points_msg(self, payload: Payload, side: str, offset: int) -> None:
        """Entry method: receive one state's points (copied into the operand)."""
        dest = self.slot(side, offset)
        if self.cfg.validate and payload.data is not None:
            dest.array[...] = payload.data
        # "copies the points into a contiguous data buffer" — §5.1
        self.charge_pack(dest.nbytes)
        self._input_landed()


# ---------------------------------------------------------------------------
# CkDirect-based
# ---------------------------------------------------------------------------


class GSpaceCkd(GSpaceBase):
    """GSpace chare, CkDirect forward path."""
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.put_handles = []
        self._expected_assocs = 2 * self.cfg.nblocks

    def setup(self) -> None:
        """Entry method: wire channels / join the setup barrier."""
        pass  # PCs create the handles and ship them here

    def take_handle(self, handle) -> None:
        """Entry method: associate my buffer with a shipped handle."""
        ckd.assoc_local(self, handle, self.send_buffer())
        self.put_handles.append(handle)
        if len(self.put_handles) == self._expected_assocs:
            self.contribute(callback=self.monitor.callback())

    def _send_points(self) -> None:
        for h in self.put_handles:
            ckd.put(h)


class PairCalcCkd(PairCalcBase):
    """PairCalculator chare, CkDirect inputs."""
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recv_handles = []

    def setup(self) -> None:
        """Entry method: wire channels / join the setup barrier."""
        cfg = self.cfg
        gs = self.gs_proxy
        for side, block in (("left", self.left_block), ("right", self.right_block)):
            for off in range(cfg.grain):
                state = block * cfg.grain + off
                h = ckd.create_handle(
                    self,
                    self.slot(side, off),
                    OPENATOM_OOB,
                    self._on_points,
                    name=f"pc{self.thisIndex}:{side}{off}",
                )
                self.recv_handles.append(h)
                gs[(state, self.plane)].take_handle(h)

    def _on_points(self, _cbdata) -> None:
        """Completion callback: a plain function call that only counts
        (the multiply is enqueued when the count completes — §5.1)."""
        self._input_landed()

    def _pre_backward(self) -> None:
        if self.cfg.polling == "naive":
            # Re-arm and resume polling immediately: the handles then
            # sit in the polling queue through every unrelated phase,
            # taxing each scheduler iteration (§5.2).
            for h in self.recv_handles:
                ckd.ready(h)
        else:
            # Phased: mark now (buffer is free), poll only when the
            # PairCalculator phase is imminent.
            for h in self.recv_handles:
                ckd.ready_mark(h)

    def arm(self) -> None:
        """Phase notification preceding the PairCalculator phase:
        resume polling (``CkDirect_readyPollQ``).  Idempotent for
        handles that are already polled (iteration 1) and immediately
        detectable for puts that raced the notification — exactly the
        no-message-lost property §2.1 promises."""
        if self.cfg.polling == "phased":
            for h in self.recv_handles:
                # a channel whose data already arrived *and* was
                # consumed this phase (possible in the first iteration,
                # where creation left it armed and polled) re-arms in
                # _pre_backward instead
                if h.state is not ckd.ChannelState.CONSUMED:
                    ckd.ready_poll_q(h)


# ---------------------------------------------------------------------------
# Extension: CkDirect in the backward path too (§5.2's anticipation)
# ---------------------------------------------------------------------------


class GSpaceCkdFull(GSpaceCkd):
    """GSpace for the "ckd-full" variant: the orthonormalization
    *returns* also arrive through CkDirect channels — the paper's
    anticipated next step ("further improvements ... when the CkDirect
    optimization is integrated into other phases of the computation").

    Each GS registers one return channel per left-side PC; the put
    completion callback counts and, when all returns landed, enqueues
    the correction as an entry method (the same lightweight-callback
    discipline as the forward path)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.return_handles = []
        self._corr_enqueued = False

    def setup(self) -> None:
        """Entry method: wire channels / join the setup barrier."""
        from ...util.buffers import Buffer
        from .config import OPENATOM_OOB

        cfg = self.cfg
        pc = self.pc_proxy
        for j in range(cfg.nblocks):
            recv = (
                Buffer(array=np.zeros_like(self.points))
                if self.points is not None
                else Buffer(nbytes=cfg.points_bytes)
            )
            h = ckd.create_handle(
                self,
                recv,
                OPENATOM_OOB,
                self._on_return,
                name=f"gs{self.thisIndex}:ret{j}",
            )
            self.return_handles.append(h)
            pc[(self.block, j, self.plane)].take_return_handle(h, self.offset)

    def _on_return(self, _cbdata) -> None:
        self.got_returns += 1
        if (
            self.got_returns == self._expected_returns()
            and not self._corr_enqueued
        ):
            self._corr_enqueued = True
            self.proxy[self.thisIndex].apply_correction()

    def apply_correction(self) -> None:
        """Entry method: fold the returned corrections into my points."""
        self._corr_enqueued = False
        self.charge_pack(self.cfg.points_bytes)
        if self.points is not None:
            np.multiply(self.points, 0.5, out=self.points)
            np.add(self.points, 0.5, out=self.points)
        self.got_returns = 0
        for h in self.return_handles:
            ckd.ready(h)
        self._rest_phase()


class PairCalcCkdFull(PairCalcCkd):
    """PairCalculator for "ckd-full": backward results go out as puts
    from a persistent per-state staging buffer instead of messages."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.return_puts = {}  # left offset -> handle
        if self.cfg.validate:
            self._return_stage = np.zeros(
                (self.cfg.grain, self.cfg.points_per_plane)
            ) + 1.0  # corrected points stand-in, inside (0, 2)
        else:
            self._return_stage = None

    def take_return_handle(self, handle, offset) -> None:
        """Entry method: bind my return staging row to a GS channel."""
        from ...util.buffers import Buffer

        src = (
            Buffer(array=self._return_stage[offset])
            if self._return_stage is not None
            else Buffer(nbytes=self.cfg.points_bytes)
        )
        ckd.assoc_local(self, handle, src)
        self.return_puts[offset] = handle

    def backward(self, _ortho_payload) -> None:
        """Entry method: run the backward transform and return results."""
        cfg = self.cfg
        flops = 2 * cfg.points_per_plane * cfg.grain * cfg.grain
        self.charge(
            flops * cfg.pc_work_scale / self.rt.machine.compute.dgemm_flops_per_sec
        )
        for h in self.return_puts.values():
            ckd.put(h)
