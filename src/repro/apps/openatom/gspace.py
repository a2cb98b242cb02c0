"""GSpace chares: one electronic state's plane of g-space points.

Per timestep a ``GS(s, p)`` chare:

1. transforms/updates its points (FFT-ish compute; disabled in the
   paper's "PC-only" runs),
2. sends its points to every PairCalculator block that needs state
   ``s`` at plane ``p`` — one row-side and one column-side set of
   ``nblocks`` destinations.  This is *the* communication the paper
   optimizes with CkDirect (§5.1),
3. waits for the orthonormalization-corrected points to return from
   those same PCs (regular messages in both versions, as in the
   paper), applies the correction,
4. runs the rest of the timestep (density/real-space/nonlocal phases,
   modelled as compute plus rings of small messages among states) —
   the "many unrelated phases" during which naive polling taxes every
   scheduler iteration (§5.2),
5. joins the timestep barrier.
"""

from __future__ import annotations

import numpy as np

from ...charm import Chare, Payload
from ...sim.rng import substream
from ...util.buffers import Buffer
from .config import OpenAtomConfig


class GSpaceBase(Chare):
    """Shared GSpace behaviour (send mechanics differ per version)."""

    def __init__(self, cfg: OpenAtomConfig, monitor) -> None:
        self.cfg = cfg
        self.monitor = monitor
        self.it = 0
        s, p = self.thisIndex
        self.state = s
        self.plane = p
        self.block = s // cfg.grain
        self.offset = s % cfg.grain  # my slot inside the PC operand
        self.got_returns = 0
        self.sent_this_iter = False
        self.rest_left = 0
        self._rest_got = 0
        if cfg.validate:
            rng = substream(cfg.seed, 2, s, p)
            # stay inside (0, 2): OOB = -1 can never appear
            self.points = rng.random(cfg.points_per_plane) + 0.5
        else:
            self.points = None

    # ------------------------------------------------------------------

    @property
    def pc_proxy(self):
        """Proxy to the PairCalculator array."""
        return self.rt.arrays[self._pc_array_id].proxy

    def _expected_returns(self) -> int:
        """Corrected points come back from the row of PCs holding my
        state on the left side (one per right-hand block)."""
        return self.cfg.nblocks

    def send_buffer(self) -> Buffer:
        """The registered source buffer for my points."""
        if self.points is not None:
            return Buffer(array=self.points)
        return Buffer(nbytes=self.cfg.points_bytes)

    def shard_state(self):
        """Point state the driver digests (sharded-engine merge)."""
        return None if self.points is None else {"points": self.points}

    # ------------------------------------------------------------------
    # Phase 1+2: transform and send points (version hook: _send_points)
    # ------------------------------------------------------------------

    def resume(self) -> None:
        """Entry method: run one iteration's send phase."""
        if self.it >= self.cfg.iterations:
            return
        if not self.cfg.pc_only:
            # g-space transform work for this plane
            self.charge(
                self.cfg.points_per_plane * self.rt.machine.compute.fft_per_point
            )
        self._send_points()
        self.sent_this_iter = True

    def _send_points(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Phase 3: corrected points return (messages in both versions)
    # ------------------------------------------------------------------

    def corrected(self, payload: Payload) -> None:
        """Entry method: one orthonormalization return arrived."""
        self.got_returns += 1
        if self.got_returns == self._expected_returns():
            # fold the corrections into my points (axpy-like sweep)
            self.charge_pack(self.cfg.points_bytes)
            if self.points is not None:
                # deterministic "update": damp towards 1 (stays in (0,2))
                np.multiply(self.points, 0.5, out=self.points)
                np.add(self.points, 0.5, out=self.points)
            self.got_returns = 0
            self._rest_phase()

    # ------------------------------------------------------------------
    # Phase 4: the rest of the timestep
    # ------------------------------------------------------------------

    def _rest_phase(self) -> None:
        if self.cfg.pc_only or self.cfg.rest_rounds == 0:
            self._finish_step()
            return
        self.rest_left = self.cfg.rest_rounds
        self._rest_round()

    def _rest_round(self) -> None:
        # a ring exchange among the states of my plane + local work:
        # stands in for the density / real-space / nonlocal phases
        self.charge(self.cfg.rest_work)
        nxt = ((self.state + 1) % self.cfg.nstates, self.plane)
        self.proxy[nxt].rest_msg()

    def rest_msg(self) -> None:
        """Entry method: one ring message of the non-PC phases."""
        self._rest_got += 1
        self.rest_left -= 1
        if self.rest_left > 0:
            self._rest_round()
        else:
            self._finish_step()

    def _finish_step(self) -> None:
        self.it += 1
        self.sent_this_iter = False
        self._post_step()
        self.contribute(callback=self.monitor.callback())

    def _post_step(self) -> None:
        """Version hook."""
