"""The Chare base class.

A chare is a message-driven object: any public method acts as an
*entry method* invokable through the array proxy.  The runtime binds
``rt``, ``thisIndex``, array, and home PE before the user constructor
runs, so constructors can already use them.

Inside an entry method the chare may:

* ``self.charge(seconds)`` — consume simulated compute time,
* ``self.charge_pack(nbytes)`` — consume one application-level memcpy
  (the cost CkDirect's in-place delivery elides),
* send to peers via ``self.proxy[...]`` / ``self.proxy.bcast``,
* ``self.contribute(...)`` — join a reduction / barrier over its array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Tuple

from .callback import CkCallback
from .errors import ContextError

if TYPE_CHECKING:  # pragma: no cover
    from .array import ArrayProxy, ChareArray
    from .pe import PE
    from .runtime import Runtime


class Chare:
    """Base class for message-driven objects."""

    # Bound by the runtime in _bind(); declared for introspection.
    rt: "Runtime"
    thisIndex: Tuple[int, ...]

    def _bind(
        self, rt: "Runtime", array: "ChareArray", index: Tuple[int, ...], pe: "PE"
    ) -> None:
        self.rt = rt
        self._array = array
        self._pe = pe
        self.thisIndex = index
        #: per-collective contribution epoch counters (the whole array
        #: and each section this element belongs to count separately)
        self._reduction_seqs: dict = {}

    # ------------------------------------------------------------------

    @property
    def proxy(self) -> "ArrayProxy":
        """Proxy to this chare's array (``self.proxy[idx].method(...)``)."""
        return self._array.proxy

    @property
    def my_pe(self) -> int:
        """Home PE rank of this chare."""
        return self._pe.rank

    @property
    def now(self) -> float:
        """This chare's local simulated time (its PE's cursor)."""
        return self._pe.cursor

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------

    def charge(self, seconds: float) -> None:
        """Consume compute time on this chare's PE."""
        self._require_context()
        self._pe.charge(seconds)

    def charge_pack(self, nbytes: int) -> None:
        """Consume one application-level memcpy of ``nbytes``."""
        self._require_context()
        charm = self.rt.machine.charm
        if nbytes:
            self._pe.charge(charm.copy_base + nbytes * charm.copy_per_byte)

    def _require_context(self) -> None:
        cur = self.rt.current_pe
        if cur is None or cur is not self._pe:
            raise ContextError(
                f"{type(self).__name__}{self.thisIndex} used outside its PE context"
            )

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------

    def contribute(
        self,
        value: Any = None,
        reducer: Optional[str] = None,
        callback: Optional[CkCallback] = None,
        section=None,
    ) -> None:
        """Join the next reduction epoch of this array (or of one of
        its sections, when ``section=`` is given).

        With ``value=None, reducer=None`` this is a pure barrier; the
        callback fires when every member has contributed.  Every
        member must pass the same reducer and an equivalent callback
        within one epoch.
        """
        self._require_context()
        target = self._array if section is None else section
        if section is not None:
            if section.base_array is not self._array:
                raise ContextError(
                    f"{type(self).__name__}{self.thisIndex}: section "
                    "belongs to a different array"
                )
            if not section.contains(self.thisIndex):
                raise ContextError(
                    f"{type(self).__name__}{self.thisIndex} is not a "
                    "member of the section it contributed to"
                )
        seq = self._reduction_seqs.get(target.id, 0)
        self._reduction_seqs[target.id] = seq + 1
        self.rt.reductions.contribute(
            target, self._pe, seq, value, reducer, callback
        )

    # ------------------------------------------------------------------
    # Sharded-engine state reconciliation (see repro.sim.parallel)
    # ------------------------------------------------------------------

    def shard_state(self) -> Optional[dict]:
        """Validation state a worker shard ships home after a sharded
        run (picklable attribute dict), or None when the element holds
        none — the default.  Override in chares whose drivers read
        element state after ``rt.run()``."""
        return None

    def shard_load(self, state: dict) -> None:
        """Install a :meth:`shard_state` payload on the parent's copy."""
        for name, value in state.items():
            setattr(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        idx = getattr(self, "thisIndex", "?")
        return f"<{type(self).__name__}{idx}>"
