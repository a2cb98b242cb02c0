"""Reductions and barriers over chare arrays.

Implemented the way the real runtime does it — with actual messages,
so collectives pay realistic costs inside the simulation:

1. every element contributes on its home PE; when the last local
   element of an epoch arrives, the PE-local partial is complete;
2. partials flow *up a binomial tree* over the array's home PEs as
   internal runtime messages (small control payloads through the real
   fabric + scheduler);
3. the root fires the :class:`~repro.charm.callback.CkCallback`
   (a broadcast callback then flows back *down* the same tree).

A reduction epoch is identified by the per-element contribution
sequence number, so arrays can have several reductions in flight and
elements may contribute to epoch *n+1* before stragglers finish *n*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Set, Tuple

import numpy as np

from .callback import CkCallback
from .errors import ReductionError

if TYPE_CHECKING:  # pragma: no cover
    from .array import ChareArray
    from .pe import PE
    from .runtime import Runtime

#: Control bytes per reduction / broadcast stage message (epoch ids,
#: array id, contribution counts — the fixed part of the wire format).
CONTROL_BYTES = 48

REDUCERS: Dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "land": lambda a, b: bool(a) and bool(b),
    "lor": lambda a, b: bool(a) or bool(b),
}


def value_bytes(value: Any) -> int:
    """Wire bytes a reduction value contributes."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    return 8


class _Node:
    """Per-(array, epoch, PE) reduction state."""

    __slots__ = (
        "local_got",
        "value",
        "have_value",
        "children_pending",
        "reducer",
        "callback",
        "closed",
    )

    def __init__(self, children: Set[int]) -> None:
        self.local_got = 0
        self.value: Any = None
        self.have_value = False
        self.children_pending = set(children)
        self.reducer: Optional[str] = None
        self.callback: Optional[CkCallback] = None
        self.closed = False


class ReductionManager:
    """Coordinates all reductions in one runtime."""

    def __init__(self, rt: "Runtime") -> None:
        self.rt = rt
        self._nodes: Dict[Tuple[int, int, int], _Node] = {}

    def _node(self, array: "ChareArray", seq: int, pe_rank: int) -> _Node:
        key = (array.id, seq, pe_rank)
        node = self._nodes.get(key)
        if node is None:
            node = _Node(set(array.tree_children(pe_rank)))
            self._nodes[key] = node
        return node

    def _merge(self, node: _Node, value: Any, reducer: Optional[str]) -> None:
        if reducer is None:
            if value is not None:
                raise ReductionError("barrier contribution must carry no value")
            return
        if reducer not in REDUCERS:
            raise ReductionError(
                f"unknown reducer {reducer!r}; expected one of {sorted(REDUCERS)}"
            )
        if not node.have_value:
            node.value = value
            node.have_value = True
        else:
            node.value = REDUCERS[reducer](node.value, value)

    def _check_consistency(
        self, node: _Node, reducer: Optional[str], callback: Optional[CkCallback]
    ) -> None:
        if node.reducer is not None and reducer is not None and node.reducer != reducer:
            raise ReductionError(
                f"mixed reducers in one epoch: {node.reducer!r} vs {reducer!r}"
            )
        if reducer is not None:
            node.reducer = reducer
        if callback is not None:
            node.callback = callback

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def contribute(
        self,
        array: "ChareArray",
        pe: "PE",
        seq: int,
        value: Any,
        reducer: Optional[str],
        callback: Optional[CkCallback],
    ) -> None:
        """Record one element's contribution to an epoch."""
        node = self._node(array, seq, pe.rank)
        if node.closed:
            raise ReductionError(
                f"late contribution to closed epoch {seq} on PE {pe.rank}"
            )
        self._check_consistency(node, reducer, callback)
        self._merge(node, value, reducer)
        node.local_got += 1
        local = array.local_count(pe.rank)
        if node.local_got > local:
            raise ReductionError(
                f"PE {pe.rank} got {node.local_got} contributions for epoch "
                f"{seq} but hosts only {local} elements"
            )
        self._maybe_complete(array, seq, pe.rank)

    def receive_partial(
        self, array_id: int, seq: int, child_pe: int, value: Any, reducer: Optional[str]
    ) -> None:
        """An up-tree partial arrived at the current PE's agent."""
        rt = self.rt
        pe = rt.current_pe
        assert pe is not None, "partials are delivered in a PE context"
        array = rt.collective(array_id)
        node = self._node(array, seq, pe.rank)
        self._check_consistency(node, reducer, None)
        if child_pe not in node.children_pending:
            raise ReductionError(
                f"unexpected partial from PE {child_pe} for epoch {seq}"
            )
        node.children_pending.discard(child_pe)
        if reducer is not None:
            self._merge(node, value, reducer)
        self._maybe_complete(array, seq, pe.rank)

    # ------------------------------------------------------------------

    def _maybe_complete(self, array: "ChareArray", seq: int, pe_rank: int) -> None:
        node = self._nodes[(array.id, seq, pe_rank)]
        if node.closed:
            return
        if node.local_got < array.local_count(pe_rank) or node.children_pending:
            return
        node.closed = True
        parent = array.tree_parent(pe_rank)
        rt = self.rt
        if parent is None:
            # Root: fire the callback with the fully reduced value.
            if node.callback is None:
                raise ReductionError(
                    f"reduction epoch {seq} on array {array.id} completed "
                    "without any contributor supplying a callback"
                )
            result = node.value if node.reducer is not None else None
            node.callback.invoke(rt, result)
        else:
            rt.send(
                rt.agents,
                (parent,),
                "_reduction_partial",
                (array.id, seq, pe_rank, node.value, node.reducer),
                internal=True,
                nbytes_override=CONTROL_BYTES + value_bytes(node.value),
            )
        del self._nodes[(array.id, seq, pe_rank)]
