"""Unit helpers.

All simulated time is ``float`` seconds and all sizes are ``int``
bytes.  These helpers keep parameter tables and call sites legible
(``us(4.2)`` instead of ``4.2e-6``) and provide the inverse conversions
used by report formatting.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------


def ns(x: float) -> float:
    """Nanoseconds → seconds."""
    return x * 1e-9


def us(x: float) -> float:
    """Microseconds → seconds."""
    return x * 1e-6


def ms(x: float) -> float:
    """Milliseconds → seconds."""
    return x * 1e-3


def to_us(seconds: float) -> float:
    """Seconds → microseconds."""
    return seconds * 1e6


def to_ms(seconds: float) -> float:
    """Seconds → milliseconds."""
    return seconds * 1e3


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


def KiB(x: float) -> int:
    """Binary kibibytes -> bytes."""
    return int(x * 1024)


def MiB(x: float) -> int:
    """Binary mebibytes -> bytes."""
    return int(x * 1024 * 1024)


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------


def GB_per_s(x: float) -> float:
    """Gigabytes/second → seconds-per-byte (inverse bandwidth)."""
    return 1.0 / (x * 1e9)


def MB_per_s(x: float) -> float:
    """Megabytes/second → seconds-per-byte (inverse bandwidth)."""
    return 1.0 / (x * 1e6)


def fmt_bytes(n: int) -> str:
    """Human-readable byte count using the paper's decimal convention."""
    if n >= 1_000_000:
        return f"{n / 1_000_000:g}MB"
    if n >= 1_000:
        return f"{n / 1_000:g}KB"
    return f"{n}B"


def fmt_us(seconds: float, digits: int = 3) -> str:
    """Format a duration as microseconds, the unit the paper reports."""
    return f"{to_us(seconds):.{digits}f}"
