"""Messages and payloads.

A :class:`Message` is the unit the scheduler queues: target chare,
entry-method name, arguments, and the number of *user payload bytes*
(the fabric adds the Charm++ envelope header on the wire — the paper's
"≈ 80 bytes").

Arguments that carry bulk data are :class:`Payload` objects (or bare
``numpy`` arrays, which are auto-wrapped with ``pack=True``):

* ``pack=True`` — marshalling: the runtime charges a memcpy on the
  sender (``copy_base + nbytes * copy_per_byte``) and snapshots the
  data so the in-flight message is insulated from later writes to the
  source.  This is the normal Charm++ parameter-marshalling cost that
  CkDirect elides.
* ``pack=False`` — a pre-built / reused message buffer (the pingpong
  benchmark does this, as the paper's does): no copy is charged and
  the data travels by reference; the sender must not mutate it until
  delivery.  Application code opts in explicitly.

A payload may be *virtual* (``data=None, nbytes=...``): timing is
identical, no bytes move — used for paper-scale performance runs.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Tuple

import numpy as np

from .errors import CharmError

_msg_ids = itertools.count()


class Payload:
    """Bulk data attached to an entry-method invocation.

    ``auto`` marks payloads created by the runtime's auto-wrapping of
    bare ndarray arguments; these are unwrapped back to arrays at
    delivery so handlers see exactly the type the sender passed.
    """

    __slots__ = ("data", "nbytes", "pack", "auto")

    def __init__(
        self,
        data: Optional[np.ndarray] = None,
        nbytes: Optional[int] = None,
        pack: bool = True,
        auto: bool = False,
    ) -> None:
        if data is None and nbytes is None:
            raise CharmError("Payload needs data= or nbytes=")
        if data is not None and nbytes is not None and int(nbytes) != int(data.nbytes):
            raise CharmError(
                f"Payload nbytes={nbytes} disagrees with data.nbytes={data.nbytes}"
            )
        self.data = data
        #: size in bytes (a plain attribute: every bulk send reads it)
        self.nbytes = int(data.nbytes if data is not None else nbytes)  # type: ignore[union-attr]
        self.pack = bool(pack)
        self.auto = bool(auto)

    @property
    def is_virtual(self) -> bool:
        """True when no real data backs this payload."""
        return self.data is None

    @classmethod
    def virtual(cls, nbytes: int) -> "Payload":
        """Size-only payload for performance-mode runs."""
        return cls(nbytes=nbytes, pack=False)

    def marshalled(self) -> "Payload":
        """The on-the-wire form: a packed payload travels as its
        unpacked copy (real data snapshotted), virtual or not, so the
        copy is charged once however many hops forward it."""
        if not self.pack:
            return self
        data = None if self.data is None else np.array(self.data, copy=True)
        return Payload(data, self.nbytes, pack=False, auto=self.auto)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "virtual" if self.is_virtual else "real"
        return f"<Payload {kind} {self.nbytes}B pack={self.pack}>"


class Message:
    """A scheduled entry-method invocation."""

    __slots__ = (
        "id",
        "array_id",
        "index",
        "method",
        "args",
        "nbytes",
        "src_pe",
        "send_time",
        "is_internal",
        "bulk",
        "trace_eid",
    )

    def __init__(
        self,
        array_id: int,
        index: Tuple[int, ...],
        method: str,
        args: Tuple[Any, ...],
        nbytes: int,
        src_pe: Optional[int],
        send_time: float,
        is_internal: bool = False,
        bulk: bool = True,
    ) -> None:
        self.id = next(_msg_ids)
        self.array_id = array_id
        self.index = index
        self.method = method
        self.args = args
        self.nbytes = nbytes
        self.src_pe = src_pe
        self.send_time = send_time
        self.is_internal = is_internal
        #: False only when the sender's scan found no Payload or ndarray
        #: among ``args``: delivery then passes them through unwrapped.
        self.bulk = bulk
        #: latest timeline event on this message's causal chain (the
        #: send instant, then the enqueue instant) — None untraced.
        self.trace_eid = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message #{self.id} -> array{self.array_id}{self.index}"
            f".{self.method} {self.nbytes}B>"
        )
