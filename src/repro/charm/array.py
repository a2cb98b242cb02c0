"""Chare arrays and proxies.

A :class:`ChareArray` is an N-dimensional collection of chares spread
over the machine by a :class:`~repro.charm.mapping.Mapping`.  Elements
are addressed through the array's :class:`ArrayProxy`:

``arr.proxy[(i, j)].method(a, b)`` sends a message invoking
``method(a, b)`` on element ``(i, j)``; ``arr.proxy.bcast("go")``
invokes ``go()`` on every element via a spanning tree over the home
PEs.

Placement is fixed at creation: the array builds every element once,
binds it to the PE its mapping names, and keys it in
:attr:`ChareArray.elements` by its canonical index tuple.  Resolving an
index is one probe of that dict; only a miss (an int, a list, a numpy
scalar, a bad index, or an element not built yet) normalises and
bounds-checks.  ``proxy[i]`` probes once and its element proxy carries
the element itself, so the send does not probe again.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, List, Tuple, Type

import numpy as np

from .chare import Chare
from .errors import CharmError, MappingError
from .mapping import BlockMap, Mapping, linear_index

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime
    from .section import ArraySection


def normalize(index) -> Tuple[int, ...]:
    """Canonical tuple of an index: a scalar or a sequence (tuple,
    list, array) of integral components.

    A component must equal its ``int()`` value: ints, numpy ints,
    bools and integral floats pass; ``1.7``, ``"1"`` or ``None`` raise
    :class:`MappingError` instead of addressing another element.
    """
    if isinstance(index, (int, np.integer)):
        return (int(index),)
    try:
        comps = tuple(index)
    except TypeError:  # a scalar
        comps = (index,)
    out = []
    for c in comps:
        try:
            i = int(c)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != c:
            raise MappingError(f"index {index!r}: {c!r} is not an integer")
        out.append(i)
    return tuple(out)


class ElementProxy:
    """Handle on one array element: ``proxy[i].method(*args)`` sends.

    It holds the element itself, or, while the array's constructors
    still run, the canonical index of one not built yet; a send hands
    that to :meth:`Runtime.send`, which then need not probe.

    Entry-method senders live on this class, one per method name, as
    charmxi generates them per proxy class: the first ``proxy[i].m``
    with a new name installs ``m``'s sender here, and every later one
    finds it by ordinary attribute lookup.  Nothing is cached per
    element.  A name no chare defines still sends; delivery raises
    :class:`~repro.charm.errors.EntryMethodError`.
    """

    __slots__ = ("_array", "_to")

    @property
    def index(self) -> Tuple[int, ...]:
        """This proxy's element index."""
        to = self._to
        return to if type(to) is tuple else to.thisIndex

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)

        def send(proxy: ElementProxy, *args: Any) -> None:
            array = proxy._array
            array.rt.send(array, proxy._to, method, args)

        send.__name__ = send.__qualname__ = method
        # Two threads' first uses may both install it; the senders are
        # equal, so the second write changes nothing.
        setattr(ElementProxy, method, send)
        return getattr(self, method)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ElementProxy array{self._array.id}{self.index}>"


#: builds an element proxy without an ``__init__`` frame per send.
_new = object.__new__


class ArrayProxy:
    """Handle on a whole chare array."""

    __slots__ = ("_array",)

    def __init__(self, array: "ChareArray") -> None:
        self._array = array

    def __getitem__(self, index) -> ElementProxy:
        array = self._array
        try:  # the one probe of a proxy send
            to = array.elements.get(index)
        except TypeError:  # unhashable: a list, an array
            to = None
        if to is None:
            idx = array.normalize_index(index)
            to = array.elements.get(idx, idx)
        proxy = _new(ElementProxy)
        proxy._array = array
        proxy._to = to
        return proxy

    def bcast(self, method: str, *args: Any) -> None:
        """Invoke an entry method on every member."""
        self._array.rt.bcast(self._array, method, args)

    @property
    def array(self) -> "ChareArray":
        """The underlying chare array."""
        return self._array


class ChareArray:
    """An N-dimensional array of chares."""

    def __init__(
        self,
        rt: "Runtime",
        array_id: int,
        cls: Type[Chare],
        dims: Tuple[int, ...],
        ctor_args: tuple = (),
        ctor_kwargs: dict | None = None,
        mapping: Mapping | None = None,
        internal: bool = False,
    ) -> None:
        if not dims or any(d <= 0 for d in dims):
            raise CharmError(f"invalid array dims {dims!r}")
        if not (isinstance(cls, type) and issubclass(cls, Chare)):
            raise CharmError(f"{cls!r} is not a Chare subclass")
        self.rt = rt
        self.id = array_id
        self.cls = cls
        self.dims = tuple(int(d) for d in dims)
        self.mapping = mapping if mapping is not None else BlockMap()
        self.internal = internal
        self.proxy = ArrayProxy(self)

        self.elements: Dict[Tuple[int, ...], Chare] = {}
        self.local_elements: Dict[int, List[Tuple[int, ...]]] = {}
        n_pes = rt.n_pes
        kwargs = ctor_kwargs or {}
        for index in itertools.product(*(range(d) for d in self.dims)):
            pe_rank = self.mapping.pe_for(index, self.dims, n_pes)
            if not (0 <= pe_rank < n_pes):
                raise MappingError(f"map sent {index} to PE {pe_rank}")
            pe = rt.pes[pe_rank]
            elem = cls.__new__(cls)
            elem._bind(rt, self, index, pe)
            elem.__init__(*ctor_args, **kwargs)
            self.elements[index] = elem
            self.local_elements.setdefault(pe_rank, []).append(index)
        #: sorted PE ranks hosting at least one element — the node set
        #: for this array's reduction / broadcast spanning tree.
        self.home_pes: List[int] = sorted(self.local_elements)
        self._home_pos = {pe: i for i, pe in enumerate(self.home_pes)}

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of elements/members."""
        return len(self.elements)

    def normalize_index(self, index) -> Tuple[int, ...]:
        """Canonical tuple form of an element index (bounds-checked).

        The probe of :attr:`elements` hits for canonical tuples and
        for tuples whose components hash and compare equal to them
        (numpy ints, bools, integral floats); everything else
        normalises.
        """
        try:
            elem = self.elements.get(index)
        except TypeError:  # unhashable: a list, an array
            elem = None
        if elem is not None:
            return elem.thisIndex
        idx = normalize(index)
        linear_index(idx, self.dims)  # bounds check
        return idx

    def element(self, index) -> Chare:
        """The chare object at an index (host-side introspection)."""
        return self.elements[self.normalize_index(index)]

    def pe_of(self, index) -> int:
        """Home PE rank of an element index: the PE the element was
        bound to when built.  Only an element not built yet (a
        constructor naming a later neighbour) asks the mapping."""
        idx = self.normalize_index(index)
        elem = self.elements.get(idx)
        if elem is None:
            return self.mapping.pe_for(idx, self.dims, self.rt.n_pes)
        return elem._pe.rank

    def local_count(self, pe_rank: int) -> int:
        """Number of members hosted on a PE."""
        return len(self.local_elements.get(pe_rank, ()))

    # Spanning-tree structure (binomial over home-PE positions) ----------

    def tree_parent(self, pe_rank: int) -> int | None:
        """Parent PE in the binomial tree, or None at the root."""
        from .section import binomial_parent

        parent_pos = binomial_parent(self._home_pos[pe_rank])
        return None if parent_pos is None else self.home_pes[parent_pos]

    def tree_children(self, pe_rank: int) -> List[int]:
        """Child PEs in the binomial tree (positions whose parent —
        lowest set bit cleared — is this node's position)."""
        from .section import binomial_children

        return [
            self.home_pes[c]
            for c in binomial_children(
                self._home_pos[pe_rank], len(self.home_pes)
            )
        ]

    @property
    def base_array(self) -> "ChareArray":
        """The array collective deliveries target (self; sections
        return their parent array)."""
        return self

    def section(self, indices) -> "ArraySection":
        """Create a registered section over ``indices`` of this array."""
        return self.rt.create_section(self, indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChareArray #{self.id} {self.cls.__name__}{self.dims}>"
