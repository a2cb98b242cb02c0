"""Process-level fault tolerance for the execution infrastructure.

PR 3 made the *simulated* fabric fault-tolerant; this package does the
same for the *real* processes that run a simulation:

* :mod:`.supervisor` — coordinator-side shard supervision for the
  ``--shards N`` engines: barrier-piggybacked heartbeats, crash/hang
  detection, deterministic restart by message-log replay, and graceful
  degradation to the serial engine after ``supervisor.MAX_RESTARTS``
  restarts (bit-identical output on every rung of the ladder).
* :mod:`.integrity` — per-object content checksums for the serve
  :class:`~repro.serve.store.ResultStore`'s self-healing read path
  (verify on read, quarantine corruption, recompute as a miss).

Exercised end-to-end by ``repro chaos --proc`` (see
:mod:`repro.faults` for the process-scope fault profiles).
"""

from .integrity import (
    SIDECAR_SUFFIX,
    checksum,
    read_sidecar,
    sidecar_path,
    write_sidecar,
)
from .supervisor import (
    RestartBudgetExceeded,
    ShardSupervisor,
    supervise_conservative,
    supervise_timewarp,
)

__all__ = [
    "RestartBudgetExceeded",
    "SIDECAR_SUFFIX",
    "ShardSupervisor",
    "checksum",
    "read_sidecar",
    "sidecar_path",
    "supervise_conservative",
    "supervise_timewarp",
    "write_sidecar",
]
