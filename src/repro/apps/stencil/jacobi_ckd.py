"""Jacobi with CkDirect channels (the paper's CKD version).

Channel wiring follows Figure 1: each chare creates one handle per
incoming face, registering the *ghost-layer view* as the receive
buffer (data lands exactly where the stencil reads it), and ships the
handle to the owning neighbor in a regular message; the neighbor
associates its contiguous staging buffer.  Per iteration:

1. pack faces into the staging buffers (same cost as MSG) and
   ``CkDirect_put`` each channel,
2. the completion callbacks count arrivals — plain function calls,
   no scheduler involvement,
3. once all faces are in, the callback *enqueues* the compute as a
   regular entry method (one scheduling trip per iteration instead of
   one per face).  Keeping callbacks lightweight is the pattern the
   paper prescribes for OpenAtom (§5.1: "the callback enqueues a
   CHARM++ entry method to perform the multiplication") — a heavy
   inline callback would preempt the queued per-chare sends and
   serialize the iteration;
4. after the compute, call ``CkDirect_ready`` on every handle and join
   the global barrier; the barrier guarantees at most one transaction
   in flight per channel (paper §4.1).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ... import ckdirect as ckd
from .base import STENCIL_OOB, JacobiBase
from .decomp import opposite


class JacobiCkd(JacobiBase):
    """Halo exchange via CkDirect puts."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: handles for the faces *I* receive, keyed by my direction
        self.recv_handles: Dict[Tuple[int, int], ckd.CkDirectHandle] = {}
        #: handles owned by neighbours that I put into, keyed by my
        #: outgoing direction
        self.put_handles: Dict[Tuple[int, int], ckd.CkDirectHandle] = {}
        self._advance_enqueued = False

    def setup(self) -> None:
        """Entry method: wire channels / join the setup barrier."""
        for d, nb in self.neighbors:
            handle = ckd.create_handle(
                self,
                self.ghost_view(d),
                STENCIL_OOB,
                self._on_face,
                cbdata=d,
                name=f"jac{self.thisIndex}:{d}",
            )
            self.recv_handles[d] = handle
            # ship the handle to the neighbour that will write it; in
            # the neighbour's frame the channel points opposite(d)
            self.proxy[nb].take_handle(handle, opposite(d))
        self._maybe_setup_done()  # covers chares with no neighbours

    def take_handle(self, handle: ckd.CkDirectHandle, my_direction) -> None:
        """Entry method: associate my buffer with a shipped handle."""
        my_direction = tuple(my_direction)
        ckd.assoc_local(self, handle, self.send_bufs[my_direction])
        self.put_handles[my_direction] = handle
        self._maybe_setup_done()

    def _maybe_setup_done(self) -> None:
        if (
            not getattr(self, "_setup_contributed", False)
            and len(self.put_handles) == len(self.neighbors)
        ):
            self._setup_contributed = True
            self.contribute(callback=self.monitor.callback())

    # ------------------------------------------------------------------

    def resume(self) -> None:
        """Entry method: run one iteration's send phase."""
        if self.it >= self.iterations:
            return
        for d, _nb in self.neighbors:
            self._pack(d)
            ckd.put(self.put_handles[d])
        self.sent_this_iter = True
        self._maybe_advance()

    def _on_face(self, _direction) -> None:
        """CkDirect completion callback: data already sits in the ghost
        layer; just count (a plain function call on the receiver)."""
        self.got_faces += 1
        self._maybe_advance()

    def _maybe_advance(self) -> None:
        # Callbacks stay lightweight: the compute goes through the
        # scheduler once per iteration (paper §5.1 pattern).
        if (
            self._exchange_complete()
            and self.it < self.iterations
            and not self._advance_enqueued
        ):
            self._advance_enqueued = True
            self.proxy[self.thisIndex].do_advance()

    def do_advance(self) -> None:
        """Entry method: run the deferred compute (callback-enqueued)."""
        self._advance_enqueued = False
        if self._exchange_complete() and self.it < self.iterations:
            self._advance()

    def _post_compute(self) -> None:
        # Paper protocol: all chares call CkDirect_ready, then a global
        # barrier ensures no put races the re-arming.
        for handle in self.recv_handles.values():
            ckd.ready(handle)
