"""Two-sided matching: posted-receive and unexpected-message queues.

MPI two-sided semantics in miniature: receives match arrivals on
``(source, tag)`` with wildcards, in posted order.  Matching *cost*
(tag matching software, plus the bounce-buffer copy for messages that
arrived before their receive was posted) is charged by the rank layer;
this module is the pure bookkeeping, kept separate so it can be tested
exhaustively on its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Optional

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class RecvPost:
    """A posted receive awaiting data."""

    src: int
    tag: int
    cb: Callable[["Arrival"], None]
    post_time: float
    nbytes_max: Optional[int] = None

    def matches(self, arrival: "Arrival") -> bool:
        """True when this receive matches an arrival's (src, tag)."""
        return (self.src in (ANY_SOURCE, arrival.src)) and (
            self.tag in (ANY_TAG, arrival.tag)
        )


@dataclass
class Arrival:
    """An arrived (or, for rendezvous, announced) message."""

    src: int
    tag: int
    nbytes: int
    arrival_time: float
    #: None for delivered eager data; for rendezvous, a thunk the
    #: matcher calls to begin the data transfer once a receive matches.
    begin_data: Optional[Callable[[RecvPost], None]] = None
    user: Any = None
    #: causing timeline event (the send instant) — None untraced.
    trace_eid: Optional[int] = None

    @property
    def is_rendezvous(self) -> bool:
        """True for announced (RTS) arrivals whose data is pending."""
        return self.begin_data is not None


class Matcher:
    """Per-rank matching engine."""

    def __init__(self) -> None:
        self.posted: Deque[RecvPost] = deque()
        self.unexpected: Deque[Arrival] = deque()

    def post(self, recv: RecvPost) -> Optional[Arrival]:
        """Post a receive; returns the matching arrival if one is
        already waiting (earliest first), else queues the receive."""
        for i, arr in enumerate(self.unexpected):
            if recv.matches(arr):
                del self.unexpected[i]
                return arr
        self.posted.append(recv)
        return None

    def arrive(self, arrival: Arrival) -> Optional[RecvPost]:
        """Record an arrival; returns the matching posted receive if
        any (oldest first), else queues the arrival as unexpected."""
        for i, recv in enumerate(self.posted):
            if recv.matches(arrival):
                del self.posted[i]
                return recv
        self.unexpected.append(arrival)
        return None
