"""Small statistics helpers shared by the bench harness and tests."""

from __future__ import annotations

from typing import Sequence


def percent_improvement(baseline: float, improved: float) -> float:
    """Percentage by which ``improved`` beats ``baseline`` (positive = better)."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (baseline - improved) / baseline


def monotone_increasing(values: Sequence[float], slack: float = 0.0) -> bool:
    """True when each value is >= its predecessor minus ``slack``.

    Used by shape assertions where measured trends are expected to rise
    but small wobbles (a few percent) are tolerated.
    """
    vals = list(values)
    return all(b >= a - slack for a, b in zip(vals, vals[1:]))


class LatencyHistogram:
    """Fixed log2-bucketed latency histogram (seconds).

    Buckets double from ``base`` upward (``<=base``, ``<=2*base``, ...,
    ``+Inf``), Prometheus-style cumulative-free counts plus running
    count/sum so callers can report both a distribution and a mean.
    Used by the serve layer's ``/metrics`` endpoint; kept dependency-
    free and O(1) per observation.
    """

    def __init__(self, base: float = 0.001, buckets: int = 16) -> None:
        if base <= 0 or buckets < 1:
            raise ValueError("base must be > 0 and buckets >= 1")
        self.bounds = [base * (2.0 ** i) for i in range(buckets)]
        self.counts = [0] * (buckets + 1)  # +1 for the +Inf overflow
        self.count = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency sample (negative values clamp to 0)."""
        s = max(0.0, float(seconds))
        self.count += 1
        self.sum_s += s
        if s > self.max_s:
            self.max_s = s
        for i, bound in enumerate(self.bounds):
            if s <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean_s(self) -> float:
        """Mean observed latency in seconds (0 when empty)."""
        return self.sum_s / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-ready summary: count, sum, mean, max, bucket counts."""
        buckets = {f"le_{b:g}s": c for b, c in zip(self.bounds, self.counts)}
        buckets["le_inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum_s": round(self.sum_s, 6),
            "mean_s": round(self.mean_s, 6),
            "max_s": round(self.max_s, 6),
            "buckets": buckets,
        }
