"""Communication buffers.

Every buffer handed to the communication layers (Charm++ messages,
CkDirect channels, simulated MPI) is wrapped in a :class:`Buffer`.
Two backings exist:

* **real** — wraps a ``numpy`` array (possibly a *view* into a larger
  array, e.g. a matrix row or a halo face).  Data movement is actually
  performed, so application results can be validated bit-for-bit
  against sequential references.  This is the whole point of CkDirect:
  the receiver registers a view of exactly the memory where the data
  is needed, and a put lands there with no further copy.
* **virtual** — carries only a byte count.  Used for paper-scale
  performance runs where materializing 10^8-element grids would be
  wasteful; the simulation's *timing* is unaffected because every cost
  model charges from ``nbytes``.

Following the HPC-Python guidance this module never copies when a view
suffices: :meth:`Buffer.view` re-wraps a slice without duplicating
data, and :meth:`Buffer.copy_from` is the single explicit copy point.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class BufferError_(ValueError):
    """Raised for buffer misuse (size/dtype mismatch, virtual access)."""


class Buffer:
    """A byte region participating in simulated communication."""

    __slots__ = ("array", "nbytes", "name")

    def __init__(
        self,
        array: Optional[np.ndarray] = None,
        nbytes: Optional[int] = None,
        name: str = "",
    ) -> None:
        if (array is None) == (nbytes is None):
            raise BufferError_("provide exactly one of array= or nbytes=")
        if array is not None:
            if not isinstance(array, np.ndarray):
                raise BufferError_(f"array must be numpy.ndarray, got {type(array)}")
            self.array = array
            #: size in bytes (a plain attribute: puts read it per message)
            self.nbytes = int(array.nbytes)
        else:
            if nbytes is None or nbytes <= 0:
                raise BufferError_(f"nbytes must be positive, got {nbytes!r}")
            self.array = None
            self.nbytes = int(nbytes)
        self.name = name

    # ------------------------------------------------------------------

    @classmethod
    def real(cls, array: np.ndarray, name: str = "") -> "Buffer":
        """Wrap a numpy array (possibly a view)."""
        return cls(array=array, name=name)

    @classmethod
    def virtual(cls, nbytes: int, name: str = "") -> "Buffer":
        """Create a size-only buffer (timing runs)."""
        return cls(nbytes=nbytes, name=name)

    @property
    def is_virtual(self) -> bool:
        """True when no real data backs this payload."""
        return self.array is None

    # ------------------------------------------------------------------
    # Element access (used for the out-of-band sentinel)
    # ------------------------------------------------------------------

    def _last_index(self) -> tuple:
        assert self.array is not None
        return np.unravel_index(self.array.size - 1, self.array.shape)

    def get_last(self):
        """Value of the final element (the paper's trailing double word)."""
        if self.array is None:
            raise BufferError_("virtual buffers have no elements")
        return self.array[self._last_index()]

    def set_last(self, value) -> None:
        """Overwrite the final element; works on non-contiguous views."""
        if self.array is None:
            raise BufferError_("virtual buffers have no elements")
        self.array[self._last_index()] = value

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------

    def copy_from(self, src: "Buffer") -> None:
        """Copy ``src``'s contents into this buffer (the one real copy).

        Virtual endpoints only validate sizes.  Real endpoints require
        matching dtype and element counts; shapes may differ (a put of
        a flat staging buffer into a 2-D view is legal as long as the
        element counts agree), in which case the *source* is reshaped —
        sources are contiguous send buffers, so this reshape is free.
        """
        if src.nbytes != self.nbytes:
            raise BufferError_(
                f"size mismatch: src={src.nbytes}B dst={self.nbytes}B"
            )
        if self.array is None or src.array is None:
            return  # virtual on either side: timing-only transfer
        if src.array.dtype != self.array.dtype:
            raise BufferError_(
                f"dtype mismatch: src={src.array.dtype} dst={self.array.dtype}"
            )
        if src.array.shape == self.array.shape:
            np.copyto(self.array, src.array)
        else:
            np.copyto(self.array, np.ascontiguousarray(src.array).reshape(self.array.shape))

    def snapshot(self) -> Optional[np.ndarray]:
        """An owning copy of the current contents (None when virtual).

        Used by message marshalling: packing a Charm++ message *is* a
        copy, and we perform it for real so that in-flight messages are
        insulated from later writes to the source buffer.
        """
        if self.array is None:
            return None
        return np.array(self.array, copy=True)

    def view(self, key) -> "Buffer":
        """Wrap a sub-region without copying (real buffers only)."""
        if self.array is None:
            raise BufferError_("cannot take a view of a virtual buffer")
        sub = self.array[key]
        return Buffer(array=sub, name=f"{self.name}[view]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "virtual" if self.is_virtual else f"real{getattr(self.array, 'shape', '')}"
        return f"<Buffer {self.name!r} {kind} {self.nbytes}B>"
