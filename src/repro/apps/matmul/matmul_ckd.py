"""Matmul with CkDirect channels (the paper's CKD version).

Channel wiring (all at setup, once):

* for every remote A/B slice a chare expects, it registers the exact
  destination — a *view into the middle of its assembled block* — and
  ships the handle to the slice's owner (who associates its static
  slice buffer: one source buffer, ``c-1`` handles, no copies);
* every ``z > 0`` chare gets a handle onto its slot in the reduction
  root's collector, associated with its persistent partial-C buffer.

Per iteration the data flows with bare puts: inputs land assembled,
partials land in their slots, completion callbacks count — no
scheduler, no placement copies.
"""

from __future__ import annotations

from ... import ckdirect as ckd
from .base import MATMUL_OOB, MatMulBase


class MatMulCkd(MatMulBase):
    """CkDirect matmul chare (slices land assembled)."""
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recv_handles = []  # channels I receive on (for re-arming)
        self.a_put = []  # channels I put my A slice into
        self.b_put = []  # channels I put my B slice into
        self.c_put = None  # my slot at the reduction root (z > 0)
        self._assocs_expected = 2 * (self.spec.c - 1) + (0 if self.is_root else 1)
        self._assocs_done = 0
        self._dgemm_enqueued = False
        self._finish_enqueued = False

    # ------------------------------------------------------------------
    # Setup: create handles for everything I receive, ship them out
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Entry method: wire channels / join the setup barrier."""
        spec = self.spec
        x, y, z = self.thisIndex
        for peer in spec.a_peers(self.thisIndex):
            h = ckd.create_handle(
                self, self.a_dest(peer[1]), MATMUL_OOB, self._on_slice,
                name=f"mm{self.thisIndex}:a{peer[1]}",
            )
            self.recv_handles.append(h)
            self.proxy[peer].take_a_handle(h)
        for peer in spec.b_peers(self.thisIndex):
            h = ckd.create_handle(
                self, self.b_dest(peer[0]), MATMUL_OOB, self._on_slice,
                name=f"mm{self.thisIndex}:b{peer[0]}",
            )
            self.recv_handles.append(h)
            self.proxy[peer].take_b_handle(h)
        if self.is_root:
            for from_z in range(1, spec.c):
                h = ckd.create_handle(
                    self, self.c_slot(from_z), MATMUL_OOB, self._on_cpart,
                    name=f"mm{self.thisIndex}:c{from_z}",
                )
                self.recv_handles.append(h)
                self.proxy[(x, y, from_z)].take_c_handle(h)

    def _src(self, which: str):
        from ...util.buffers import Buffer

        if which == "a":
            return (
                Buffer(array=self.my_a)
                if self.validate
                else Buffer(nbytes=self.spec.a_slice_bytes)
            )
        if which == "b":
            return (
                Buffer(array=self.my_b)
                if self.validate
                else Buffer(nbytes=self.spec.b_slice_bytes)
            )
        return (
            Buffer(array=self.Cpart)
            if self.validate
            else Buffer(nbytes=self.spec.c_block_bytes)
        )

    def take_a_handle(self, handle) -> None:
        """Entry method: bind my A slice to a peer's channel."""
        ckd.assoc_local(self, handle, self._src("a"))
        self.a_put.append(handle)
        self._assoc_done()

    def take_b_handle(self, handle) -> None:
        """Entry method: bind my B slice to a peer's channel."""
        ckd.assoc_local(self, handle, self._src("b"))
        self.b_put.append(handle)
        self._assoc_done()

    def take_c_handle(self, handle) -> None:
        """Entry method: bind my partial-C buffer to the root's slot."""
        ckd.assoc_local(self, handle, self._src("c"))
        self.c_put = handle
        self._assoc_done()

    def _assoc_done(self) -> None:
        self._assocs_done += 1
        if self._assocs_done == self._assocs_expected:
            self.contribute(callback=self.monitor.callback())

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def resume(self) -> None:
        """Entry method: run one iteration's send phase."""
        if self.it >= self.iterations:
            return
        self._seed_own_slices()
        for h in self.a_put:
            ckd.put(h)
        for h in self.b_put:
            ckd.put(h)
        self.sent_this_iter = True
        self._maybe_dgemm()

    def _on_slice(self, _cbdata) -> None:
        self.got_slices += 1
        self._maybe_dgemm()

    def _on_cpart(self, _cbdata) -> None:
        self.got_cparts += 1
        self._maybe_finish_root()

    # CkDirect callbacks stay lightweight: heavy work re-enters through
    # the scheduler, exactly the paper's §5.1 pattern ("the callback
    # enqueues a CHARM++ entry method to perform the multiplication").

    def _maybe_dgemm(self) -> None:
        if self._dgemm_ready() and not self._dgemm_enqueued:
            self._dgemm_enqueued = True
            self.proxy[self.thisIndex].do_dgemm()

    def do_dgemm(self) -> None:
        """Entry method: run the deferred DGEMM (callback-enqueued)."""
        self._dgemm_enqueued = False
        if self._dgemm_ready():
            self._run_dgemm()

    def _maybe_finish_root(self) -> None:
        if self._root_ready() and not self._finish_enqueued:
            self._finish_enqueued = True
            self.proxy[self.thisIndex].do_finish_root()

    def do_finish_root(self) -> None:
        """Entry method: run the deferred root accumulation."""
        self._finish_enqueued = False
        if self._root_ready():
            self._finish_root()

    def _after_dgemm(self) -> None:
        if self.is_root:
            self._maybe_finish_root()
        else:
            ckd.put(self.c_put)
            self._close_iteration()

    def _post_iteration(self) -> None:
        for h in self.recv_handles:
            ckd.ready(h)
