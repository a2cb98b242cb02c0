"""Shared machinery for the two Jacobi implementations (MSG and CKD).

The paper's fairness discipline (§4.1) is enforced structurally here:

* both versions pack outgoing faces into contiguous staging buffers
  (the same sender-side copy, charged identically),
* neither version pays a receiver-side copy — the MSG version computes
  from the received face in place (validation mode writes it straight
  into the ghost layer, charging nothing, mirroring the paper's
  restructured computation), and the CKD version receives *into* the
  ghost layer by construction,
* both versions run the same per-iteration global barrier,

so any timing difference is exactly what the paper claims: the CKD
version bypasses message creation and the scheduler.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ...charm import Chare, CkCallback
from ...sim.rng import substream
from ...util.buffers import Buffer
from .decomp import BlockSpec
from .reference import block_update

ITEMSIZE = 8  # float64, as in the paper's double-precision domain

#: Out-of-band value for CKD channels: initial data is uniform(0,1) and
#: Jacobi averaging keeps every value in [0, 1], so -1 can never occur.
STENCIL_OOB = -1.0


def block_initial(index: Tuple[int, int, int], shape, seed: int) -> np.ndarray:
    """Deterministic per-block initial data, independent of the
    decomposition order (tests assemble the same global grid)."""
    rng = substream(seed, index[0], index[1], index[2])
    return rng.random(shape)


class IterationMonitor:
    """Host-side coordinator: barrier callbacks, iteration timing.

    Barrier 0 is the setup barrier (channels wired, data placed);
    barriers 1..N close compute iterations.  ``iter_times`` holds the
    wall-clock (simulated) span of each iteration.
    """

    def __init__(self, rt, proxy, iterations: int) -> None:
        self.rt = rt
        self.proxy = proxy
        self.iterations = iterations
        self.barriers_seen = 0
        self.marks: List[float] = []
        # Host callbacks mutate this object on shard 0 of a sharded
        # run; registering it ships its data home with the run.
        rt.register_host_state(self)

    def on_barrier(self, _value=None) -> None:
        """Barrier-release hook: record the time, start the next step."""
        self.marks.append(self.rt.now)
        self.barriers_seen += 1
        if self.barriers_seen <= self.iterations:
            self.proxy.bcast("resume")

    @property
    def iter_times(self) -> List[float]:
        """Per-iteration durations (diffs of barrier marks)."""
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    def callback(self) -> CkCallback:
        """A CkCallback delivering to on_barrier."""
        return CkCallback.host(self.on_barrier)


class JacobiBase(Chare):
    """Common state: geometry, buffers, compute, barrier discipline."""

    def __init__(
        self,
        domain: Tuple[int, int, int],
        grid: Tuple[int, int, int],
        iterations: int,
        validate: bool,
        seed: int,
        monitor: IterationMonitor,
    ) -> None:
        X, Y, Z = domain
        cx, cy, cz = grid
        self.spec = BlockSpec(tuple(self.thisIndex), grid, (X // cx, Y // cy, Z // cz))
        self.iterations = iterations
        self.validate = validate
        self.monitor = monitor
        self.it = 0
        self.got_faces = 0
        self.sent_this_iter = False
        self.neighbors = self.spec.neighbors()
        nx, ny, nz = self.spec.shape

        if validate:
            # Interior block embedded in a ghost-padded array; the pad
            # starts at zero = the Dirichlet boundary value.
            self.u = np.zeros((nx + 2, ny + 2, nz + 2))
            self.u[1:-1, 1:-1, 1:-1] = block_initial(self.spec.index, (nx, ny, nz), seed)
        else:
            self.u = None

        # Contiguous staging buffers for outgoing faces (both versions
        # pack into these; the pack memcpy is charged in _pack).
        self.send_bufs: Dict[Tuple[int, int], Buffer] = {}
        for d, _ in self.neighbors:
            n = self.spec.face_elems(d)
            if validate:
                self.send_bufs[d] = Buffer(array=np.zeros(self._face_shape(d)))
            else:
                self.send_bufs[d] = Buffer(nbytes=n * ITEMSIZE)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------

    def _face_shape(self, direction) -> Tuple[int, int]:
        axis, _ = direction
        return tuple(s for i, s in enumerate(self.spec.shape) if i != axis)

    def _boundary_slice(self, direction):
        """Interior plane adjacent to ``direction`` (what we send)."""
        axis, side = direction
        sl = [slice(1, -1)] * 3
        sl[axis] = 1 if side < 0 else -2
        return tuple(sl)

    def _ghost_slice(self, direction):
        """Ghost plane fed by the neighbor in ``direction`` (what we
        receive)."""
        axis, side = direction
        sl = [slice(1, -1)] * 3
        sl[axis] = 0 if side < 0 else -1
        return tuple(sl)

    def ghost_view(self, direction) -> Buffer:
        """The receive location as a zero-copy view (CKD channels
        register exactly this)."""
        if self.validate:
            return Buffer(array=self.u[self._ghost_slice(direction)])
        return Buffer(nbytes=self.spec.face_bytes(direction, ITEMSIZE))

    # ------------------------------------------------------------------
    # Per-iteration pieces shared by both versions
    # ------------------------------------------------------------------

    def _pack(self, direction) -> Buffer:
        """Stage the outgoing face: a real memcpy, charged."""
        buf = self.send_bufs[direction]
        if self.validate:
            np.copyto(buf.array, self.u[self._boundary_slice(direction)])
        self.charge_pack(buf.nbytes)
        return buf

    def _compute(self) -> None:
        """One Jacobi sweep of this block (ghosts already filled)."""
        self.charge(self.spec.interior_elems * self.rt.machine.compute.stencil_update)
        if self.validate:
            self.u[1:-1, 1:-1, 1:-1] = block_update(self.u)

    def _advance(self) -> None:
        """Compute, close the iteration, and join the barrier."""
        self._compute()
        self.it += 1
        self.got_faces = 0
        self.sent_this_iter = False
        self._post_compute()
        self.contribute(callback=self.monitor.callback())

    def _post_compute(self) -> None:
        """Hook for version-specific per-iteration cleanup (CKD calls
        CkDirect_ready here, per the paper's protocol)."""

    def _exchange_complete(self) -> bool:
        return self.sent_this_iter and self.got_faces == len(self.neighbors)

    def _maybe_advance(self) -> None:
        if self._exchange_complete() and self.it < self.iterations:
            self._advance()

    # Final-state access for validation ---------------------------------

    def interior(self) -> Optional[np.ndarray]:
        """This block's interior data (None in performance mode)."""
        return None if self.u is None else self.u[1:-1, 1:-1, 1:-1]

    def shard_state(self) -> Optional[dict]:
        """Grid state gather_grid reads (sharded-engine reconciliation)."""
        return None if self.u is None else {"u": self.u}
