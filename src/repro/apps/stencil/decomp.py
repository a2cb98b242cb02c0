"""3D domain decomposition for the Jacobi stencil (paper §4.1).

The global ``X×Y×Z`` domain is partitioned into cuboids, one per
chare.  :func:`choose_grid` picks the chare-grid shape that minimizes
total halo surface (hence communication volume) among all factor
triples of the chare count that evenly divide the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

#: The six halo-exchange directions: (axis, side) with side -1 / +1.
DIRECTIONS: Tuple[Tuple[int, int], ...] = (
    (0, -1), (0, +1), (1, -1), (1, +1), (2, -1), (2, +1),
)


def opposite(direction: Tuple[int, int]) -> Tuple[int, int]:
    """The reverse of a (axis, side) direction."""
    axis, side = direction
    return (axis, -side)


def _divisors(n: int) -> List[int]:
    out = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    out += [n // d for d in reversed(out) if d * d != n]
    return out


def factor_triples(n: int) -> Iterator[Tuple[int, int, int]]:
    """All ordered triples (a, b, c) with a*b*c == n."""
    for a in _divisors(n):
        m = n // a
        for b in _divisors(m):
            yield (a, b, m // b)


def choose_grid(
    domain: Tuple[int, int, int], n_chares: int
) -> Tuple[int, int, int]:
    """The chare grid minimizing halo surface area.

    Only triples that divide the domain evenly qualify; the best one
    minimizes the per-chare surface ``2(bx*by + by*bz + bx*bz)`` where
    ``b`` is the block shape — equivalently the total bytes exchanged
    per iteration.
    """
    X, Y, Z = domain
    best: Optional[Tuple[int, Tuple[int, int, int]]] = None
    for cx, cy, cz in factor_triples(n_chares):
        if X % cx or Y % cy or Z % cz:
            continue
        bx, by, bz = X // cx, Y // cy, Z // cz
        surface = 2 * (bx * by + by * bz + bx * bz)
        key = (surface, (cx, cy, cz))
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError(
            f"no factorization of {n_chares} chares divides domain {domain}"
        )
    return best[1]


@dataclass(frozen=True)
class BlockSpec:
    """Geometry of one chare's cuboid."""

    index: Tuple[int, int, int]  # chare-grid coordinates
    grid: Tuple[int, int, int]  # chare-grid shape
    shape: Tuple[int, int, int]  # interior elements per block

    def neighbor(self, direction: Tuple[int, int]) -> Optional[Tuple[int, int, int]]:
        """Neighbor chare index in ``direction`` or None at the domain
        boundary (non-periodic, Dirichlet boundary)."""
        axis, side = direction
        coord = list(self.index)
        coord[axis] += side
        if not (0 <= coord[axis] < self.grid[axis]):
            return None
        return tuple(coord)

    def neighbors(self) -> List[Tuple[Tuple[int, int], Tuple[int, int, int]]]:
        """All (direction, neighbor_index) pairs that exist."""
        out = []
        for d in DIRECTIONS:
            nb = self.neighbor(d)
            if nb is not None:
                out.append((d, nb))
        return out

    def face_elems(self, direction: Tuple[int, int]) -> int:
        """Interior elements on the face normal to ``direction``."""
        axis, _ = direction
        a, b = [s for i, s in enumerate(self.shape) if i != axis]
        return a * b

    def face_bytes(self, direction: Tuple[int, int], itemsize: int = 8) -> int:
        """Bytes of one halo face."""
        return self.face_elems(direction) * itemsize

    @property
    def interior_elems(self) -> int:
        """Elements in this block's interior."""
        sx, sy, sz = self.shape
        return sx * sy * sz
