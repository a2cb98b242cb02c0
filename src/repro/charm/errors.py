"""Runtime error types."""

from __future__ import annotations


class CharmError(RuntimeError):
    """Base class for runtime misuse and internal errors."""


class EntryMethodError(CharmError):
    """Raised when an entry-method invocation cannot be completed
    (unknown method, exception inside user code is re-raised as-is)."""


class MappingError(CharmError):
    """Raised for invalid chare-to-PE mappings."""


class ReductionError(CharmError):
    """Raised for reduction misuse (mismatched reducers, double
    contribution in one reduction epoch, unknown reducer name)."""


class ContextError(CharmError):
    """Raised when an operation requiring a PE execution context is
    attempted from host code (or vice versa)."""


class CkDirectError(CharmError):
    """Base class for CkDirect misuse (channel API contract violations)."""


class ChannelStateError(CkDirectError):
    """An operation was attempted in a channel state that forbids it
    (e.g. ``ready_poll_q`` before ``ready_mark``, a second put while
    one is already in flight)."""


class SentinelError(CkDirectError):
    """The out-of-band contract was violated (payload contains the
    out-of-band value in its final double word)."""


class PutMismatchError(CkDirectError):
    """The sender-side buffer associated with a channel does not match
    the registered receive buffer (size, dtype, or element count), so a
    put could never land correctly.  Raised at ``assoc_local`` time —
    the earliest point both endpoints are known — instead of surfacing
    as a numpy copy/broadcast failure at delivery time."""


class PutRaceError(CkDirectError):
    """A put landed in a buffer whose sentinel was consumed but not yet
    re-marked (``ready_mark``): the receiver still owns the buffer and
    the application-level synchronization the paper relies on (§4.1)
    has been violated.  Raised by the use-before-ready check when the
    put lands (:meth:`repro.ckdirect.handle.CkDirectHandle._check_landing`,
    always on)."""
