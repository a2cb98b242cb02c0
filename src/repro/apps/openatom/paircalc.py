"""PairCalculator and Ortho chares (paper §5.1).

``PC(i, j, p)`` forms the overlap contributions of state-block pair
``(i, j)`` at plane ``p``:

1. it receives the points of ``grain`` left-side states (block ``i``)
   and ``grain`` right-side states (block ``j``) into **contiguous
   operand buffers** — the paper's requirement for efficient DGEMM.
   The MSG version copies each arriving state's points into its slot;
   the CKD version registered the slots as CkDirect receive buffers at
   setup, so the data lands assembled;
2. once all ``2 × grain`` inputs are present, the completion path
   **enqueues** the multiply as an entry method (the callback itself
   is a plain function call — the paper's exact design), the DGEMM
   runs, and the overlap contribution joins a reduction to ``Ortho``;
3. Ortho computes the inverse square root of the overlap (matrix
   work), then broadcasts back; each PC applies the backward transform
   and returns corrected points to its left-side GS chares as regular
   messages (both versions);
4. the PC re-arms its channels per the configured polling discipline:
   ``naive`` calls ``CkDirect_ready`` immediately (the handle then
   sits in the polling queue through every unrelated phase — the §5.2
   pathology), ``phased`` calls ``CkDirect_readyMark`` now and defers
   ``CkDirect_readyPollQ`` until the phase notification (``arm``) that
   precedes the next PairCalculator phase.
"""

from __future__ import annotations

import numpy as np

from ...charm import Chare, CkCallback, Payload
from ...util.buffers import Buffer
from .config import OpenAtomConfig


class PairCalcBase(Chare):
    """Shared PairCalculator behaviour."""

    def __init__(self, cfg: OpenAtomConfig, monitor) -> None:
        self.cfg = cfg
        self.monitor = monitor
        i, j, p = self.thisIndex
        self.left_block = i
        self.right_block = j
        self.plane = p
        self.got_inputs = 0
        self._mult_enqueued = False
        if cfg.validate:
            # operand buffers: points x grain, one column per state
            self.left = np.zeros((cfg.points_per_plane, cfg.grain))
            self.right = np.zeros((cfg.points_per_plane, cfg.grain))
        else:
            self.left = self.right = None

    # ------------------------------------------------------------------

    @property
    def gs_proxy(self):
        """Proxy to the GSpace array."""
        return self.rt.arrays[self._gs_array_id].proxy

    def expected_inputs(self) -> int:
        """Inputs needed before the multiply (2 x grain)."""
        return 2 * self.cfg.grain

    def slot(self, side: str, offset: int) -> Buffer:
        """The contiguous-operand slot for one state's points."""
        if self.cfg.validate:
            op = self.left if side == "left" else self.right
            return Buffer(array=op[:, offset])
        return Buffer(nbytes=self.cfg.points_bytes)

    def shard_state(self):
        """Operand state the driver digests (sharded-engine merge)."""
        if self.left is None:
            return None
        return {"left": self.left, "right": self.right}

    # ------------------------------------------------------------------
    # Multiply + reduce (common to both versions)
    # ------------------------------------------------------------------

    def _input_landed(self) -> None:
        self.got_inputs += 1
        if self.got_inputs == self.expected_inputs() and not self._mult_enqueued:
            # "The callback enqueues a CHARM++ entry method to perform
            # the multiplication" — §5.1.
            self._mult_enqueued = True
            self.proxy[self.thisIndex].multiply()

    def multiply(self) -> None:
        """Entry method: the overlap DGEMM (enqueued by the callback)."""
        self._mult_enqueued = False
        cfg = self.cfg
        flops = 2 * cfg.points_per_plane * cfg.grain * cfg.grain
        self.charge(
            flops * cfg.pc_work_scale / self.rt.machine.compute.dgemm_flops_per_sec
        )
        if cfg.validate:
            overlap = self.left.T @ self.right  # grain x grain
        else:
            overlap = None
        self.got_inputs = 0
        self._pre_backward()
        # overlap contributions reduce over all PCs to Ortho
        value = overlap if overlap is not None else float(self.plane)
        self.contribute(value, "sum", CkCallback.send(
            self.rt.arrays[self._ortho_array_id], (0,), "overlap_done"
        ))

    def _pre_backward(self) -> None:
        """Version hook: re-arm input channels (mark now; poll later
        for 'phased', immediately for 'naive')."""

    def backward(self, _ortho_payload) -> None:
        """Ortho result arrived (broadcast): run the backward transform
        and return corrected points to my left-side GS chares."""
        cfg = self.cfg
        flops = 2 * cfg.points_per_plane * cfg.grain * cfg.grain
        self.charge(
            flops * cfg.pc_work_scale / self.rt.machine.compute.dgemm_flops_per_sec
        )
        payload = Payload.virtual(cfg.points_bytes)
        base = self.left_block * cfg.grain
        for off in range(cfg.grain):
            state = base + off
            self.gs_proxy[(state, self.plane)].corrected(payload)

    def arm(self) -> None:
        """Phase notification: the PairCalculator phase is next."""


class Ortho(Chare):
    """Orthonormalization: receives the reduced overlap, computes the
    correction (inverse square root — matrix work), broadcasts back."""

    def __init__(self, cfg: OpenAtomConfig, pc_array_id: int) -> None:
        self.cfg = cfg
        self.pc_array_id = pc_array_id

    def overlap_done(self, _value) -> None:
        """Entry method: reduced overlap arrived; compute and broadcast back."""
        cfg = self.cfg
        # inverse-sqrt of an (nstates x nstates) overlap: ~ n^3 work
        flops = 4 * cfg.nstates ** 3
        self.charge(flops / self.rt.machine.compute.dgemm_flops_per_sec)
        self.rt.arrays[self.pc_array_id].proxy.bcast(
            "backward", Payload.virtual(cfg.nstates * 8)
        )
