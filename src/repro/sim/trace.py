"""Lightweight tracing and statistics collection.

The runtime and network models emit *trace points* (named counters and
sampled values) through a :class:`Trace` object.  Tracing is always on
but cheap: counters are plain dict increments, and a sampled value
folds into a per-name :class:`RunningStats` and is not kept.

The sites that run once per message or put skip :meth:`Trace.count`
and increment ``trace.counters[name]`` in place (the dict defaults to
0): ``Runtime.send``, ``Fabric.transfer``, the transport services of
both fabrics (``charm_transport``, ``dcmf_send``, ``direct_put``), a
PE's message execution, direct completions and poll sweep, and
``ckdirect.put``.  Every other site — reliability, simulated MPI,
channel setup — calls ``count``.  Either way the same keys reach
``counters``, in the same order.

This module also provides :class:`RunningStats`, a numerically stable
single-pass mean/variance accumulator (Welford), used for per-category
timing summaries without storing every sample.
"""

from __future__ import annotations

import math
from collections import defaultdict


class RunningStats:
    """Welford online mean/variance with min/max tracking."""

    __slots__ = ("n", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, x: float) -> None:
        """Fold one sample into the accumulator."""
        self.n += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        """Sample mean (0 when empty)."""
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 with fewer than two samples)."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> None:
        """Chan et al. parallel merge of two accumulators."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return
        delta = other._mean - self._mean
        n = self.n + other.n
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self._mean += delta * other.n / n
        self.n = n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunningStats(n={self.n}, mean={self.mean:.3g}, stdev={self.stdev:.3g})"


class Trace:
    """Named counters and per-name running statistics."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)
        self.stats: dict[str, RunningStats] = defaultdict(RunningStats)

    def count(self, name: str, n: int = 1) -> None:
        """Increment a named counter."""
        self.counters[name] += n

    def sample(self, name: str, value: float) -> None:
        """Fold one value into a named statistic."""
        self.stats[name].add(value)

    def counter(self, name: str) -> int:
        """Current value of a named counter (0 if never counted)."""
        return self.counters.get(name, 0)

    def stat(self, name: str) -> RunningStats:
        """The RunningStats accumulator for a name."""
        return self.stats[name]

    def summary(self) -> dict[str, dict]:
        """A plain-dict snapshot suitable for printing or JSON dumps."""
        out: dict[str, dict] = {"counters": dict(self.counters), "stats": {}}
        for name, st in self.stats.items():
            out["stats"][name] = {
                "n": st.n,
                "mean": st.mean,
                "stdev": st.stdev,
                "min": st.min if st.n else None,
                "max": st.max if st.n else None,
                "total": st.total,
            }
        return out
