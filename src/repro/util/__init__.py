"""Shared utilities: units, buffers, statistics."""

from .buffers import Buffer, BufferError_
from .stats import monotone_increasing, percent_improvement
from .units import KB, MB, fmt_bytes, ms, us

__all__ = [
    "Buffer",
    "BufferError_",
    "percent_improvement",
    "monotone_increasing",
    "us",
    "ms",
    "KB",
    "MB",
    "fmt_bytes",
]
