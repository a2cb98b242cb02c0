"""Multicast channels — the paper's "multicasts" extension (§6).

The base API already permits associating one local buffer with many
handles (one per receiver) without copies; :class:`MulticastChannel`
packages that pattern: the sender binds its buffer once, collects the
handles its receivers created, and ``put_all`` fans the data out.

On an RDMA fabric the fan-out is a sequence of RDMA writes from the
same registered source; the NIC injection link serializes them, which
the fabric model captures naturally.  After the first put of a multicast,
subsequent descriptor posts are cheaper (the source registration and
descriptor template are warm), modelled by ``repeat_issue_factor``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ...util.buffers import Buffer
from .. import api
from ..handle import CkDirectError, CkDirectHandle

if TYPE_CHECKING:  # pragma: no cover
    from ...charm.chare import Chare

#: Descriptor-post cost factor for the 2nd..Nth put in one multicast.
REPEAT_ISSUE_FACTOR = 0.4


class MulticastChannel:
    """One sender buffer fanned out over many CkDirect channels."""

    def __init__(self, chare: "Chare", src_buffer: Buffer, name: str = "") -> None:
        self.chare = chare
        self.src_buffer = src_buffer
        self.handles: List[CkDirectHandle] = []
        self.name = name or "mcast"

    def attach(self, handle: CkDirectHandle) -> None:
        """Associate the shared source buffer with one more receiver."""
        api.assoc_local(self.chare, handle, self.src_buffer)
        self.handles.append(handle)

    @property
    def fanout(self) -> int:
        """Number of receivers attached."""
        return len(self.handles)

    def put_all(self) -> None:
        """Issue one put per receiver (single warm descriptor template).

        The discount relative to independent puts is sender-side
        software only; every receiver still gets a full transfer.
        """
        if not self.handles:
            raise CkDirectError(f"{self.name}: put_all with no receivers attached")
        rt = self.chare.rt
        issue = rt.machine.ckdirect.put_issue
        for i, handle in enumerate(self.handles):
            api.put(
                handle,
                issue_cost=issue if i == 0 else issue * REPEAT_ISSUE_FACTOR,
            )
        rt.trace.count("ckdirect.multicasts")
