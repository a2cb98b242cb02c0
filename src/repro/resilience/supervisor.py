"""Shard supervision: crash/hang detection and deterministic restart.

Every ``--shards N`` run that forks (the serial fallbacks are listed
on :func:`repro.sim.parallel._fork_plan`) starts **all** N shard
workers and keeps the parent as a *pristine pure coordinator*: it
never enters a shard, never runs an event, and never mutates
simulation state until every worker has shipped its final
reconciliation payload.  That purity is the whole design — it gives
the supervisor two recovery levers that a coordinator running a shard
of its own could not have:

1. **Deterministic restart.**  The epoch-window protocol is a pure
   function of the coordinator→worker message stream.  The
   supervisor therefore logs every message it sends to each shard;
   when a worker crashes (pipe EOF / ``Process.exitcode``) or hangs
   (no barrier heartbeat within the run configuration's
   ``shard_deadline`` seconds), it
   re-forks a replacement *from the pristine parent image* and replays
   the log.  The replacement re-runs from the last epoch barrier to
   the lost worker's exact barrier state, and the run's output stays
   bit-identical to a fault-free one.

2. **Graceful degradation.**  After :data:`MAX_RESTARTS` restarts
   the supervisor stops trying: it reaps every worker and
   runs the whole problem serially *in the parent*, whose runtime is
   still exactly as constructed (host sends buffered, zero events
   run).  The degraded run is the ordinary ``--shards 1`` path and is
   bit-identical by the engine's existing guarantee.

Heartbeats are piggybacked on the existing barrier messages — a
worker that reaches its barrier *is* the heartbeat — so the clean
path adds no extra traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from ..config import current
from ..sim.parallel import (
    ParallelEngineError,
    _reap_shard,
    _run_serial_inline,
)
from ..sim.shm import channel_pair, merge_channel_stats

if TYPE_CHECKING:  # pragma: no cover
    from ..charm.runtime import Runtime

_INF = float("inf")


#: Shard restarts allowed per run before degrading to serial.
MAX_RESTARTS = 2


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


class RestartBudgetExceeded(Exception):
    """Internal: the restart budget is spent; degrade to serial."""


class _ShardDown(Exception):
    """Internal: one worker incarnation crashed or hung."""

    def __init__(self, shard: int, kind: str) -> None:
        super().__init__(f"shard {shard} {kind}")
        self.shard = shard
        self.kind = kind  # "crash" | "hang"


class ShardSupervisor:
    """Owns the worker processes of one supervised run.

    The invariant that makes replay exact: when shard ``s`` is idle at
    a barrier, the number of states the coordinator has consumed from
    it equals ``len(logs[s])`` (one window message answers one state).
    A failure detected while *receiving* therefore replays the whole
    log and resumes live; a failure detected while *sending* has
    consumed one state the log does not yet answer, so after the
    replayed replacement re-sends that state's twin the next receive
    discards exactly one message (``pending_discard``).
    """

    def __init__(self, rt: "Runtime", ctx, blocks: List[range],
                 worker) -> None:
        self.rt = rt
        self.ctx = ctx
        self.blocks = blocks
        self.n = len(blocks)
        self.worker = worker
        self.transport = rt.transport
        self.deadline = current().shard_deadline
        self.max_restarts = MAX_RESTARTS
        self.restarts = 0
        self.crashes = 0
        self.hangs = 0
        self.incarnations = [0] * self.n
        self.logs: List[List[tuple]] = [[] for _ in range(self.n)]
        self.conns: List[Any] = [None] * self.n
        self.procs: List[Any] = [None] * self.n
        self.pending_discard = [False] * self.n
        #: channel stats of reaped incarnations (each channel is reaped
        #: exactly once, so summing these never double-counts).
        self._retired_stats: List[dict] = []
        try:
            for s in range(self.n):
                self._spawn(s)
        except BaseException:
            # A failed fork (EAGAIN) or channel (full /dev/shm) for
            # shard k must not strand shards 0..k-1 and their segments:
            # the caller never receives this half-built supervisor.
            self.close(graceful_timeout=0.1)
            raise

    # -- process lifecycle ---------------------------------------------

    def _spawn(self, shard: int) -> None:
        # A fresh channel per incarnation: a crashed writer may have
        # left a half-committed frame, and under --transport shm the
        # replacement must start from pristine (all-zero) rings — the
        # dead incarnation's segments are unlinked in _reap.
        parent, child = channel_pair(
            self.ctx, self.transport,
            f"s{shard}i{self.incarnations[shard]}",
        )
        p = self.ctx.Process(
            target=self.worker,
            args=(self.rt, shard, self.blocks[shard], child),
            kwargs={"incarnation": self.incarnations[shard]},
            daemon=True,
            name=f"shard{shard}.{self.incarnations[shard]}",
        )
        try:
            p.start()
        except BaseException:
            # A failed fork: no worker will ever hold the other end.
            parent.close()
            parent.unlink()
            raise
        finally:
            # Closed before the next pair exists, so no later worker
            # inherits this child end — otherwise the EOF that reports
            # this shard's crash would wait for that sibling to exit.
            child.close()
        self.conns[shard] = parent
        self.procs[shard] = p

    def _reap(self, shard: int, graceful_timeout: float = 0.1) -> None:
        conn = self.conns[shard]
        if conn is not None:
            stats = getattr(conn, "stats", None)
            if stats is not None:
                self._retired_stats.append(stats.as_dict())
        _reap_shard(conn, self.procs[shard],
                    graceful_timeout=graceful_timeout)
        self.conns[shard] = None
        self.procs[shard] = None

    def close(self, graceful_timeout: float = 30.0) -> None:
        """Reap every live worker (idempotent)."""
        for s in range(self.n):
            if self.procs[s] is not None:
                self._reap(s, graceful_timeout=graceful_timeout)

    # -- failure detection ---------------------------------------------

    def _recv_raw(self, shard: int):
        """One message from a shard, or :class:`_ShardDown`.

        The barrier heartbeat is the message itself: no message within
        the deadline while the process lives means *hung*; EOF, an
        OS-level pipe error, or a poll satisfied only by the closing
        of a dead child's pipe means *crashed*.  A worker-reported
        ``("error", ...)`` is a deterministic application failure —
        a restart would replay straight back into it — so it raises
        :class:`ParallelEngineError` and is never retried.
        """
        conn = self.conns[shard]
        try:
            if not conn.poll(self.deadline):
                p = self.procs[shard]
                kind = "hang" if p.is_alive() else "crash"
                raise _ShardDown(shard, kind)
            msg = conn.recv()
        except (EOFError, OSError):
            raise _ShardDown(shard, "crash") from None
        if msg[0] == "error":
            raise ParallelEngineError(
                f"shard {msg[1]} failed:\n{msg[2]}"
            )
        return msg

    # -- deterministic restart -----------------------------------------

    def _replay(self, shard: int) -> None:
        """Walk a fresh incarnation through the logged message stream.

        The replacement sends one catch-up state before consuming each
        logged message; those states are deterministic twins of ones
        already consumed, so they are discarded unseen.
        """
        for msg in self.logs[shard]:
            self._recv_raw(shard)
            self.conns[shard].send(msg)

    def _restart(self, shard: int, kind: str) -> None:
        """Replace one incarnation, retrying if the replacement also
        dies (an ``every_incarnation`` fault) until the budget runs
        out."""
        while True:
            if kind == "hang":
                self.hangs += 1
            else:
                self.crashes += 1
            if self.restarts >= self.max_restarts:
                raise RestartBudgetExceeded(
                    f"shard {shard} {kind} after "
                    f"{self.restarts}/{self.max_restarts} restarts"
                )
            self.restarts += 1
            self._reap(shard)
            self.incarnations[shard] += 1
            self._spawn(shard)
            try:
                self._replay(shard)
                return
            except _ShardDown as exc:
                kind = exc.kind

    # -- the supervised message surface --------------------------------

    def recv(self, shard: int):
        """The shard's next live message, restarting through failures."""
        while True:
            try:
                msg = self._recv_raw(shard)
            except _ShardDown as exc:
                self._restart(shard, exc.kind)
                continue
            if self.pending_discard[shard]:
                # Replayed twin of a state consumed from a dead
                # incarnation inside send(): drop exactly one.
                self.pending_discard[shard] = False
                continue
            return msg

    def recv_state(self, shard: int):
        msg = self.recv(shard)
        if msg[0] != "state":
            raise ParallelEngineError(
                f"shard {shard} sent {msg[0]!r} instead of its state"
            )
        return msg

    def recv_final(self, shard: int) -> dict:
        msg = self.recv(shard)
        if msg[0] != "final":
            raise ParallelEngineError(
                f"shard {shard} sent {msg[0]!r} instead of its final report"
            )
        return msg[1]

    def send(self, shard: int, msg: tuple) -> None:
        """Send one window/done message; logged only once delivered."""
        while True:
            try:
                self.conns[shard].send(msg)
            except (BrokenPipeError, OSError):
                self._restart(shard, "crash")
                # The dead incarnation's state answering this message
                # was already consumed; the replayed replacement will
                # re-send its twin.
                self.pending_discard[shard] = True
                continue
            self.logs[shard].append(msg)
            return

    # -- reporting ------------------------------------------------------

    def report(self, degraded: bool = False) -> dict:
        return {
            "supervised": True,
            "restarts": self.restarts,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "max_restarts": self.max_restarts,
            "degraded": degraded,
        }

    def transport_stats(self) -> dict:
        """Coordinator-side transport counters across every
        incarnation: retired channels plus any still live."""
        out = merge_channel_stats(
            self.transport, (c for c in self.conns if c is not None)
        )
        for d in self._retired_stats:
            for k in ("frames", "bytes", "spills"):
                out[k] += d.get(k, 0)
        return out


# ---------------------------------------------------------------------------
# The supervised coordinator loop
# ---------------------------------------------------------------------------


def _degrade_to_serial(rt: "Runtime", sup: ShardSupervisor) -> float:
    """The last rung of the ladder: run everything in the parent.

    Legal because the supervised parent is pristine — it merged no
    partial results, ran no events, and still holds its buffered host
    sends — so this is exactly the ``--shards 1`` serial path.
    """
    now = _run_serial_inline(rt)
    rt.parallel_rounds = None
    rt.supervision = sup.report(degraded=True)
    rt.transport_stats = sup.transport_stats()
    return now


def supervise_conservative(rt: "Runtime", ctx, blocks: List[range],
                           delta: float) -> float:
    """Supervised epoch-window coordinator."""
    from ..sim.parallel import (
        _make_shard_of_rank,
        _merge_final,
        _route_window,
        _shard_worker,
    )

    n = len(blocks)
    sup = ShardSupervisor(rt, ctx, blocks, _shard_worker)
    try:
        shard_of_rank = _make_shard_of_rank(rt.fabric.topology, blocks)
        rounds = 0
        while True:
            rounds += 1
            states = [sup.recv_state(s) for s in range(n)]
            nexts = [st[1] for st in states]
            outboxes = [st[2] for st in states]
            floor, inboxes = _route_window(nexts, outboxes, n, shard_of_rank)
            if floor == _INF:
                for s in range(n):
                    sup.send(s, ("done",))
                break
            bound = floor + delta
            for s in range(n):
                sup.send(s, ("window", bound, inboxes[s]))
        # Collect *every* final before merging *any*: _merge_final
        # mutates the parent, and the degradation path below is only
        # legal while the parent is untouched.
        finals = [sup.recv_final(s) for s in range(n)]
    except RestartBudgetExceeded:
        sup.close(graceful_timeout=1.0)
        return _degrade_to_serial(rt, sup)
    finally:
        sup.close()
    for payload in finals:
        _merge_final(rt, payload)
    rt.shard_cpu_times = [p["cpu"] for p in finals]
    rt.parallel_rounds = rounds
    rt.supervision = sup.report()
    rt.transport_stats = sup.transport_stats()
    return rt.sim.now
