"""Serve-layer metrics: counters, queue gauges, latency histograms.

One :class:`ServeMetrics` instance lives on the app and is exposed at
``GET /metrics``.  Latency is tracked per ``(kind, outcome)`` — e.g.
``stencil/hit`` vs ``stencil/miss`` — with the
:class:`~repro.util.stats.LatencyHistogram` bucket machinery plus a
:class:`~repro.sim.trace.RunningStats` accumulator for stable
mean/stdev, the same statistics core the simulator's traces use.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from ..config import current
from ..sim.trace import RunningStats
from ..util.stats import LatencyHistogram


class ServeMetrics:
    """Mutable counters for one server process (single-loop access)."""

    def __init__(self) -> None:
        self.started_monotonic = time.monotonic()
        # cache traffic
        self.hits = 0
        self.misses = 0
        self.coalesced = 0     # submits folded into an in-flight job
        # job lifecycle
        self.submitted = 0     # accepted jobs (hits + queued misses)
        self.completed = 0
        self.failed = 0
        self.rejected = 0      # 429 backpressure responses
        self.bad_requests = 0  # 400s
        # engine throughput (simulated events fired by completed jobs)
        self.sim_events = 0
        self.sim_wall_s = 0.0
        # Jobs run in this process and in workers forked from it, so
        # the config installed here is the one every job runs with.
        self.config = current()
        # per-(kind, hit|miss) latency
        self._hist: Dict[Tuple[str, str], LatencyHistogram] = {}
        self._stats: Dict[Tuple[str, str], RunningStats] = {}

    def observe_latency(self, kind: str, outcome: str, seconds: float) -> None:
        """Record one request's service latency under ``kind/outcome``."""
        key = (kind, outcome)
        if key not in self._hist:
            self._hist[key] = LatencyHistogram()
            self._stats[key] = RunningStats()
        self._hist[key].observe(seconds)
        self._stats[key].add(max(0.0, float(seconds)))

    def observe_engine(self, events: int, wall_s: float) -> None:
        """Fold one job's simulated-event count and wall time in."""
        self.sim_events += int(events)
        self.sim_wall_s += max(0.0, float(wall_s))

    def to_dict(self, store=None, queue=None) -> Dict:
        """JSON-ready snapshot; optionally folds in store/queue state."""
        latency = {}
        for (kind, outcome), hist in sorted(self._hist.items()):
            stats = self._stats[(kind, outcome)]
            latency.setdefault(kind, {})[outcome] = {
                **hist.to_dict(),
                "stdev_s": round(stats.stdev, 6),
            }
        out: Dict = {
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
            "cache": {
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
            },
            "jobs": {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "bad_requests": self.bad_requests,
            },
            "engine": {
                "eventq": self.config.eventq,
                "transport": self.config.transport,
                "shards": self.config.shards,
                "jobs": self.config.jobs,
                "shard_deadline": self.config.shard_deadline,
                "events": self.sim_events,
                "events_per_s": (
                    round(self.sim_events / self.sim_wall_s, 1)
                    if self.sim_wall_s > 0 else 0.0
                ),
            },
            "latency": latency,
        }
        if store is not None:
            out["store"] = {
                "objects": len(store),
                "total_bytes": store.total_bytes,
                "max_bytes": store.max_bytes,
                "evictions": store.evictions,
                "corruptions": getattr(store, "corruptions", 0),
                "quarantined": getattr(store, "quarantined", 0),
                "healed": getattr(store, "healed", 0),
            }
        if queue is not None:
            out["queue"] = queue.gauges()
        return out
