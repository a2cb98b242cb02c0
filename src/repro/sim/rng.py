"""Deterministic random-number plumbing.

All stochastic behaviour in the simulation (randomized initial data,
randomized mappings, jitter models in ablation studies) must draw from
generators made by :func:`substream` so that a run is reproducible
from a single seed.  It uses ``numpy``'s ``SeedSequence.spawn``
machinery — streams are statistically independent and stable across
runs.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator identified by an integer path.

    ``substream(seed, 3, 7)`` always yields the same stream for the
    same arguments and a different stream for any other path, allowing
    e.g. per-chare deterministic initial data regardless of the order
    in which chares are constructed.
    """
    ss = np.random.SeedSequence(seed)
    for key in path:
        children = ss.spawn(int(key) + 1)
        ss = children[int(key)]
    return np.random.default_rng(ss)
