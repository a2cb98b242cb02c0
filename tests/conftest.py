"""Suite-wide fixtures.

Every test runs under a no-leak guard: it fails if it leaves a live
child process or a shared-memory transport segment behind.
"""

import multiprocessing as mp
import os

import pytest

from repro.sim.shm import segment_prefix


def _segments():
    """Names under /dev/shm carrying the shm transport's prefix."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:  # no /dev/shm on this platform
        return set()
    return {n for n in names if n.startswith(segment_prefix())}


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test must leave the live child processes and /dev/shm
    exactly as it found them."""
    procs, segs = set(mp.active_children()), _segments()
    yield
    live = [p.name for p in mp.active_children() if p not in procs]
    leaked = sorted(_segments() - segs)
    assert not live, f"leaked child processes: {live}"
    assert not leaked, f"leaked shm segments: {leaked}"
