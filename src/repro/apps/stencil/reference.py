"""Sequential reference for the Jacobi stencil.

Vectorized 7-point Jacobi sweep over the whole domain with Dirichlet
(zero) boundaries; the parallel implementations must match this
bit-for-bit in validation mode after any number of iterations.
"""

from __future__ import annotations

import numpy as np


def jacobi_step(grid: np.ndarray) -> np.ndarray:
    """One 7-point Jacobi sweep; zero boundary outside the domain.

    ``new[i,j,k] = (c + sum of 6 face neighbours) / 7`` — neighbours
    outside the domain contribute zero.  Fully vectorized: a padded
    copy plus six shifted views (views, not copies, per the HPC
    guidance; the single pad allocation is the only copy).
    """
    padded = np.zeros(tuple(s + 2 for s in grid.shape), dtype=grid.dtype)
    padded[1:-1, 1:-1, 1:-1] = grid
    acc = padded[1:-1, 1:-1, 1:-1].copy()
    acc += padded[:-2, 1:-1, 1:-1]
    acc += padded[2:, 1:-1, 1:-1]
    acc += padded[1:-1, :-2, 1:-1]
    acc += padded[1:-1, 2:, 1:-1]
    acc += padded[1:-1, 1:-1, :-2]
    acc += padded[1:-1, 1:-1, 2:]
    acc /= 7.0
    return acc


def jacobi_reference(grid: np.ndarray, iterations: int) -> np.ndarray:
    """``iterations`` sweeps from an initial grid (input untouched)."""
    g = np.array(grid, dtype=float, copy=True)
    for _ in range(iterations):
        g = jacobi_step(g)
    return g


def block_update(block_with_ghosts: np.ndarray) -> np.ndarray:
    """One Jacobi sweep of a block given filled ghost layers.

    ``block_with_ghosts`` has shape ``(nx+2, ny+2, nz+2)``; returns the
    new interior of shape ``(nx, ny, nz)``.
    """
    g = block_with_ghosts
    acc = g[1:-1, 1:-1, 1:-1].copy()
    acc += g[:-2, 1:-1, 1:-1]
    acc += g[2:, 1:-1, 1:-1]
    acc += g[1:-1, :-2, 1:-1]
    acc += g[1:-1, 2:, 1:-1]
    acc += g[1:-1, 1:-1, :-2]
    acc += g[1:-1, 1:-1, 2:]
    acc /= 7.0
    return acc
