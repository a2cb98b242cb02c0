"""Unit helpers.

All simulated time is ``float`` seconds and all sizes are ``int``
bytes.  These helpers keep parameter tables and call sites legible
(``us(4.2)`` instead of ``4.2e-6``).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------


def us(x: float) -> float:
    """Microseconds → seconds."""
    return x * 1e-6


def ms(x: float) -> float:
    """Milliseconds → seconds."""
    return x * 1e-3


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

#: The paper quotes message sizes in decimal units (``10^3 B`` in the
#: table headers), so KB/MB here are decimal, matching the tables.
def KB(x: float) -> int:
    """Decimal kilobytes -> bytes (the paper's 10^3 B convention)."""
    return int(x * 1_000)


def MB(x: float) -> int:
    """Decimal megabytes -> bytes."""
    return int(x * 1_000_000)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def fmt_bytes(n: int) -> str:
    """Human-readable byte count using the paper's decimal convention."""
    if n >= 1_000_000:
        return f"{n / 1_000_000:g}MB"
    if n >= 1_000:
        return f"{n / 1_000:g}KB"
    return f"{n}B"
