"""Shared chare machinery for the two matmul versions.

Per iteration every chare:

1. seeds its own slices into its assembled ``A[x,z]`` / ``B[z,y]``
   blocks (a local copy, charged identically in both versions) and
   sends each slice to the ``c-1`` peers that need it;
2. once all ``2(c-1)`` remote slices are in *and* its own sends are
   issued, runs the block DGEMM (``2 n^3`` flops at the machine's
   sustained rate);
3. ships the partial C block to its ``z = 0`` reduction root; roots
   accumulate ``c-1`` partials (the summation cost is charged equally
   in both versions — only the *placement* of arriving data differs);
4. everyone joins a global barrier, after which the next iteration
   begins.

The versions differ exactly where the paper says they do (§4.2): the
MSG version copies every received slice into the right location of the
assembled block (charged), while CkDirect lands it there directly and
skips the scheduler.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...charm import Chare
from ...util.buffers import Buffer
from ..stencil.base import IterationMonitor  # same barrier/timing discipline
from .decomp3d import MatMulSpec, slice_a, slice_b

#: Input data is uniform(0, 1); partial C entries are positive sums.
MATMUL_OOB = -1.0


class MatMulBase(Chare):
    """Common state for MatMulMsg / MatMulCkd."""

    def __init__(
        self,
        spec: MatMulSpec,
        iterations: int,
        validate: bool,
        seed: int,
        monitor: IterationMonitor,
    ) -> None:
        self.spec = spec
        self.iterations = iterations
        self.validate = validate
        self.seed = seed
        self.monitor = monitor
        self.it = 0
        x, y, z = self.thisIndex
        self.is_root = z == 0

        n, sr, c = spec.n, spec.slice_rows, spec.c
        if validate:
            self.A = np.zeros((n, n))
            self.B = np.zeros((n, n))
            # Persistent partial-C buffer: CkDirect registers it once,
            # so the DGEMM writes into it in place every iteration.
            self.Cpart: Optional[np.ndarray] = np.zeros((n, n))
            self.my_a = slice_a(spec, self.thisIndex, seed)
            self.my_b = slice_b(spec, self.thisIndex, seed)
            # z=0 roots collect c-1 remote partials in slots + their own
            self.c_slots = (
                np.zeros((c - 1, n, n)) if self.is_root else None
            )
            self.C: Optional[np.ndarray] = None
        else:
            self.A = self.B = self.Cpart = self.c_slots = self.C = None
            self.my_a = self.my_b = None

        self.got_slices = 0
        self.got_cparts = 0
        self.sent_this_iter = False
        self.dgemm_done = False

    # ------------------------------------------------------------------
    # Views into the assembled blocks (where arriving slices belong)
    # ------------------------------------------------------------------

    def a_dest(self, from_y: int) -> Buffer:
        """Where the A-slice owned by grid row ``from_y`` lands."""
        sr = self.spec.slice_rows
        if self.validate:
            return Buffer(array=self.A[:, from_y * sr:(from_y + 1) * sr])
        return Buffer(nbytes=self.spec.a_slice_bytes)

    def b_dest(self, from_x: int) -> Buffer:
        """Where the B-slice owned by grid row from_x lands."""
        sr = self.spec.slice_rows
        if self.validate:
            return Buffer(array=self.B[from_x * sr:(from_x + 1) * sr, :])
        return Buffer(nbytes=self.spec.b_slice_bytes)

    def c_slot(self, from_z: int) -> Buffer:
        """Root-side landing slot for the partial C from layer ``from_z``."""
        assert self.is_root and from_z >= 1
        if self.validate:
            return Buffer(array=self.c_slots[from_z - 1])
        return Buffer(nbytes=self.spec.c_block_bytes)

    # ------------------------------------------------------------------
    # Iteration pieces
    # ------------------------------------------------------------------

    def _seed_own_slices(self) -> None:
        """Copy my own slices into my assembled blocks (both versions)."""
        x, y, z = self.thisIndex
        sr = self.spec.slice_rows
        if self.validate:
            self.A[:, y * sr:(y + 1) * sr] = self.my_a
            self.B[x * sr:(x + 1) * sr, :] = self.my_b
        self.charge_pack(self.spec.a_slice_bytes)
        self.charge_pack(self.spec.b_slice_bytes)

    def _expected_slices(self) -> int:
        return 2 * (self.spec.c - 1)

    def _dgemm_ready(self) -> bool:
        return (
            self.sent_this_iter
            and not self.dgemm_done
            and self.got_slices == self._expected_slices()
        )

    def _maybe_dgemm(self) -> None:
        if self._dgemm_ready():
            self._run_dgemm()

    def _run_dgemm(self) -> None:
        self.dgemm_done = True
        self.charge(
            self.spec.dgemm_flops / self.rt.machine.compute.dgemm_flops_per_sec
        )
        if self.validate:
            np.matmul(self.A, self.B, out=self.Cpart)
        self._after_dgemm()

    def _after_dgemm(self) -> None:
        """Version hook: ship the partial C toward the reduction root."""
        raise NotImplementedError

    def _accumulate_cost(self) -> None:
        """Summing c-1 partials into C: one read-add-write sweep per
        partial, memory-bound like a copy — charged equally in both
        versions."""
        extra = (self.spec.c - 1) * self.spec.c_block_bytes
        self.charge_pack(extra)

    def _finish_root(self) -> None:
        self._accumulate_cost()
        if self.validate:
            self.C = self.Cpart + self.c_slots.sum(axis=0)
        self._close_iteration()

    def _close_iteration(self) -> None:
        self.it += 1
        self.got_slices = 0
        self.got_cparts = 0
        self.sent_this_iter = False
        self.dgemm_done = False
        self._post_iteration()
        self.contribute(callback=self.monitor.callback())

    def _post_iteration(self) -> None:
        """Version hook (CKD re-arms its channels here)."""

    def _root_ready(self) -> bool:
        return (
            self.is_root
            and self.dgemm_done
            and self.got_cparts == self.spec.c - 1
        )

    def _maybe_finish_root(self) -> None:
        if self._root_ready():
            self._finish_root()

    def shard_state(self) -> Optional[dict]:
        """Result state gather_c reads (sharded-engine reconciliation)."""
        if not self.validate:
            return None
        out = {"Cpart": self.Cpart}
        if self.is_root:
            out["C"] = self.C
            out["c_slots"] = self.c_slots
        return out
