"""Chare-array element to PE mappings.

The runtime maps virtual processors (chares) onto physical PEs; the
choice affects load balance and communication locality.  The paper's
experiments use straightforward block placement with a virtualization
ratio (chares per PE) of 8 for the stencil runs.

Placement is static: a :class:`~repro.charm.array.ChareArray` asks its
mapping once per element, when it builds the element, and binds the
element to that PE.  Sends read the bound PE; no mapping runs per
message.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Tuple

from .errors import MappingError


def linear_index(index: Tuple[int, ...], dims: Tuple[int, ...]) -> int:
    """Row-major linearization of a multidimensional chare index."""
    if len(index) != len(dims):
        raise MappingError(f"index {index} does not match dims {dims}")
    lin = 0
    for i, d in zip(index, dims):
        if not (0 <= i < d):
            raise MappingError(f"index {index} out of bounds for dims {dims}")
        lin = lin * d + i
    return lin


class Mapping:
    """Base mapping: assigns each element index to a home PE."""

    def pe_for(self, index: Tuple[int, ...], dims: Tuple[int, ...], n_pes: int) -> int:
        """Home PE for an element index under this mapping."""
        raise NotImplementedError


class BlockMap(Mapping):
    """Contiguous blocks of linearized indices per PE (Charm++ default).

    With ``total = k * n_pes`` elements, PE *p* hosts linear indices
    ``[p*k, (p+1)*k)`` — consecutive chares share a PE, which for
    row-major stencil decompositions keeps neighbours local.
    """

    def pe_for(self, index, dims, n_pes):
        """Home PE for an element index under this mapping."""
        return linear_index(index, dims) * n_pes // prod(dims)


class RoundRobinMap(Mapping):
    """Linear index modulo PE count — maximal scatter."""

    def pe_for(self, index, dims, n_pes):
        """Home PE for an element index under this mapping."""
        return linear_index(index, dims) % n_pes


class CustomMap(Mapping):
    """Wrap a user function ``(index, dims, n_pes) -> pe``."""

    def __init__(self, fn: Callable[[Tuple[int, ...], Tuple[int, ...], int], int]) -> None:
        self.fn = fn

    def pe_for(self, index, dims, n_pes):
        """Home PE for an element index under this mapping."""
        pe = int(self.fn(index, dims, n_pes))
        if not (0 <= pe < n_pes):
            raise MappingError(f"custom map produced PE {pe} outside [0, {n_pes})")
        return pe
