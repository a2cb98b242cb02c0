"""Time Warp optimistic parallel DES engine (``--engine optimistic``).

The conservative engine (:mod:`repro.sim.parallel`) is gated by its
lookahead window ``delta = Fabric.min_remote_latency()``: on a low-
latency fabric the epoch windows shrink until fork/pipe synchronization
dominates the run — the same regime in which CkDirect itself argues
that synchronization, not data movement, is the bottleneck.  This
module makes the complementary optimistic bet (Jefferson's Time Warp):
shards **speculate past the epoch boundary**, checkpoint their state
periodically, and repair mis-speculation after the fact.

Protocol (lock-step rounds on the same fork/pipe transport):

1. At a barrier every shard ships the cross-shard records it buffered
   (each stamped with a process-local ``(shard, counter)`` *token*),
   any anti-messages from flushed rollback epochs, its next local
   event time, and its *floor* (the minimum target arrival time over
   pending anti-message candidates).
2. The coordinator (the supervisor process, which runs no shard of
   its own — see :mod:`repro.resilience.supervisor`) computes the
   **GVT** — the minimum over all next-event times, all routed record
   arrival times, all anti-message targets, and all floors — and
   routes records and antis to their destination shards.
   ``GVT == inf`` terminates.
3. Each shard processes antis (dead-marking the targeted records),
   rolls back if any anti target or incoming record lies at or below
   its local clock (**straggler**), admits its inbox, fossil-collects
   checkpoints below GVT, checkpoints on an event-count cadence
   (:data:`CP_EVENTS`), and speculates to the round's bound
   ``floor + H*delta``.  By default ``H`` is **adaptive**: the
   coordinator collapses it to 1 — exactly the conservative window,
   which admits no stragglers — whenever a routed arrival lands in
   some shard's past, and doubles it after every clean round.
   Setting :data:`HORIZON` pins a fixed horizon instead (``inf``
   selects unbounded run-to-drain speculation).

Rollback restores the newest checkpoint strictly below the straggler
time and replays.  Replay is **bit-exact** (state restore is in-place
and complete, handle ids are allocated from a checkpointed per-runtime
counter), which powers the anti-message scheme: a send whose
generating event lies *below* the straggler regenerates byte-for-byte
and is **deduplicated** against the rollback epoch's stale-send set
(the shipped copy simply stands, under its original token) rather than
cancelled and re-shipped.  Only sends from the divergent region — the
epoch entries still unmatched once the clock passes the rollback point
(or at a coordinator-forced flush when the system is otherwise quiet)
— become anti-messages ``(token, arrival_time)``.  The floor term in
the GVT keeps every unflushed anti target above GVT, so an anti always
finds its target's input-log entry before the destination could have
fossil-collected the checkpoints needed to undo it.

Determinism: admission still uses the conservative engine's canonical
``(head_arrival, dst, src, k)`` order, and a rolled-back shard replays
the exact ``(time, priority, seq)`` event order of its first
execution, so ``--engine optimistic --shards N`` is **bit-identical**
to ``--shards 1`` on every app, for every event-queue implementation.

Host-side callbacks run **eagerly**, like chare methods — they may
drive progress (iteration monitors broadcast the next step from their
barrier callback), so deferring them would stall the application.
Their side effects must therefore be confined to attributes of objects
registered through ``Runtime.register_host_state`` *before* the run
starts: checkpoints snapshot those objects alongside chare state, so a
rollback undoes a speculative callback's mutations exactly.  (Host
callbacks cannot cross shards — the wire codec rejects them — so they
only ever fire on shard 0.)
"""

from __future__ import annotations

import os
import pickle
import traceback
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..network.topology import shard_nodes
from .eventq import checkpoint_sim, restore_sim
from .parallel import (
    ParallelEngineError,
    _enter_shard,
    _final_payload,
    _fork_plan,
    _lookahead,
    _proc_injector,
    _run_serial_inline,
    encode_record,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..charm.runtime import Runtime

_INF = float("inf")

#: timewarp_stats keys (gvt_rounds is coordinator-only; the rest are
#: summed across shards).
STAT_KEYS = (
    "rollbacks",
    "antis",
    "antis_received",
    "dedups",
    "checkpoints",
    "events_rolled_back",
    "gvt_rounds",
)


#: Speculation bound per round, in lookahead windows (``floor +
#: H*delta``).  None (the default) selects the **adaptive** horizon:
#: the coordinator starts at ``H=1`` — exactly the conservative window,
#: which provably admits no stragglers — doubles ``H`` after every
#: straggler-free round, and collapses back to 1 the moment a routed
#: record or anti-message lands in some shard's past.  Speculation is
#: therefore aggressive through decoupled (compute) phases and
#: automatically conservative through latency-coupled (barrier)
#: phases, where fixed horizons roll back persistently.  A number
#: pins a fixed horizon; ``inf`` runs every round to drain.
HORIZON: Optional[float] = None

#: Mid-run checkpoint cadence, in events.
CP_EVENTS = 50_000


# ---------------------------------------------------------------------------
# Shard checkpoints
# ---------------------------------------------------------------------------


def _scan_handles(value: Any, out: dict) -> None:
    """Collect CkDirect handles reachable from a chare attribute
    (proxies built by the wire codec are not in ``rt._handles``)."""
    from ..ckdirect.handle import CkDirectHandle

    if isinstance(value, CkDirectHandle):
        out[id(value)] = value
    elif isinstance(value, (list, tuple)):
        for x in value:
            _scan_handles(x, out)
    elif isinstance(value, dict):
        for x in value.values():
            _scan_handles(x, out)


class ShardCheckpoint:
    """A complete, in-place-restorable snapshot of one shard's state.

    Holds the event queue (via :func:`checkpoint_sim`), the fabric's
    engine buffers, owned PEs, owned chare elements, CkDirect handles,
    reduction nodes, registered host-state objects, trace counters/
    stats, and the Time Warp log positions (input log, sent log,
    tracer length) that anchor rollback accounting.  Restores write
    contents back **into the original objects**, so references held by
    checkpointed event closures stay coherent.
    """

    __slots__ = (
        "now", "events_processed", "input_len", "sent_len", "host_snaps",
        "tracer_len", "outbox_ids", "sim_snap", "fab_snap", "pe_snaps",
        "chare_snaps", "handle_snaps", "handles_dict", "red_snap",
        "trace_snap", "next_hid",
    )

    @classmethod
    def capture(
        cls, rt: "Runtime", owned: frozenset, input_len: int, sent_len: int
    ) -> "ShardCheckpoint":
        from ..charm.chare import _snap_value

        cp = cls()
        cp.now = rt.sim.now
        cp.events_processed = rt.sim.events_processed
        cp.input_len = input_len
        cp.sent_len = sent_len
        cp.host_snaps = [
            (obj, [(k, _snap_value(v)) for k, v in obj.__dict__.items()])
            for obj in rt._tw_host_state
        ]
        cp.tracer_len = len(rt.tracer.events) if rt.tracer is not None else 0
        cp.next_hid = rt._next_hid
        cp.sim_snap = checkpoint_sim(rt.sim)
        cp.fab_snap = rt.fabric.engine_checkpoint()
        cp.outbox_ids = frozenset(id(r) for r in cp.fab_snap[1])
        cp.pe_snaps = [
            (pe, pe.tw_checkpoint()) for pe in rt.pes if pe.rank in owned
        ]
        chares = []
        if rt._tw_handles is not None:
            # Optimistic runtime: every handle self-registered at
            # construction — snapshot the registry directly instead of
            # rediscovering handles through chare attributes (the scan
            # re-walks ~70 values per chare per capture for a handle
            # set that is static after setup).
            for arr in rt.arrays.values():
                for elem in arr.elements.values():
                    if elem._pe.rank in owned:
                        chares.append((elem, elem.tw_checkpoint()))
            handles = rt._tw_handles
        else:
            handles = {}
            for h in rt._handles.values():
                handles[id(h)] = h
            for arr in rt.arrays.values():
                for elem in arr.elements.values():
                    if elem._pe.rank in owned:
                        chares.append((elem, elem.tw_checkpoint()))
                        for v in elem.__dict__.values():
                            _scan_handles(v, handles)
            for pe, _snap in cp.pe_snaps:
                for h in pe.pollq.values():
                    handles[id(h)] = h
        cp.chare_snaps = chares
        cp.handle_snaps = [(h, h.tw_checkpoint()) for h in handles.values()]
        cp.handles_dict = dict(rt._handles)
        cp.red_snap = rt.reductions.tw_checkpoint()
        cp.trace_snap = rt.trace.tw_checkpoint()
        return cp

    def restore(self, rt: "Runtime") -> None:
        from ..charm.chare import _restore_value

        restore_sim(rt.sim, self.sim_snap)
        rt.fabric.engine_restore(self.fab_snap)
        for pe, snap in self.pe_snaps:
            pe.tw_restore(snap)
        for elem, snap in self.chare_snaps:
            elem.tw_restore(snap)
        for h, snap in self.handle_snaps:
            h.tw_restore(snap)
        rt._handles.clear()
        rt._handles.update(self.handles_dict)
        rt.reductions.tw_restore(self.red_snap)
        for obj, snap in self.host_snaps:
            names = set()
            for k, s in snap:
                names.add(k)
                obj.__dict__[k] = _restore_value(s)
            for k in [n for n in obj.__dict__ if n not in names]:
                del obj.__dict__[k]
        rt.trace.tw_restore(self.trace_snap)
        if rt.tracer is not None:
            del rt.tracer.events[self.tracer_len:]
        rt._next_hid = self.next_hid


# ---------------------------------------------------------------------------
# Per-shard Time Warp machinery
# ---------------------------------------------------------------------------


class _Epoch:
    """One rollback's stale-send set, open until the clock re-passes
    the rollback's origin time (``old_now``) or a forced flush."""

    __slots__ = ("old_now", "by_enc", "count")

    def __init__(self, old_now: float, stale: Dict[tuple, tuple]) -> None:
        self.old_now = old_now
        self.by_enc: Dict[bytes, List[tuple]] = {}
        self.count = len(stale)
        for tok, (enc, dst, ha) in stale.items():
            self.by_enc.setdefault(enc, []).append((tok, dst, ha))

    def floor(self) -> float:
        lo = _INF
        for entries in self.by_enc.values():
            for _tok, _dst, ha in entries:
                if ha < lo:
                    lo = ha
        return lo


class _TimeWarpShard:
    """Everything one shard needs beyond the conservative worker: the
    send/input logs, checkpoints, epochs, and the round procedure."""

    def __init__(self, rt: "Runtime", shard_id: int, block: range,
                 cp_events: int) -> None:
        from .parallel import _owned_ranks

        self.rt = rt
        self.shard_id = shard_id
        self.owned = frozenset(_owned_ranks(rt, block))
        self.cp_events = cp_events
        self.next_token = 0
        #: ship log: (token, raw_record, enc_bytes, dst_rank, head_arrival);
        #: re-appended on dedup rematch so rollback accounting always sees
        #: a token at the position of its *latest* (re)generation.
        self.sent: List[tuple] = []
        #: raw records already shipped, by identity (strong refs live in
        #: ``sent``); guards against re-shipping a record restored into
        #: the outbox by a rollback to a mid-run checkpoint.
        self.shipped: Dict[int, tuple] = {}
        #: admission log: (token, record), in admission order.
        self.input_log: List[tuple] = []
        self.input_index: Dict[tuple, tuple] = {}
        #: anti-killed records by identity (strong refs prevent id reuse).
        self.dead: Dict[int, tuple] = {}
        #: anti-killed records whose *admission event* survives in the
        #: committed timeline.  admit_remote schedules one drain event
        #: per record; killing the record leaves that event to fire as
        #: a no-op the bit-identical serial run never executes, so the
        #: final event count subtracts these.  A rollback below the
        #: record's admission point erases the event (the restored
        #: queue predates it and dead records are not re-admitted),
        #: un-orphaning it.
        self.orphaned: set = set()
        self.epochs: List[_Epoch] = []
        self.cps: List[ShardCheckpoint] = []
        self.flush_pending = False
        self.bound = _INF
        self.stats = {k: 0 for k in STAT_KEYS}

    # -- barrier step 1: ship ------------------------------------------

    def barrier_state(self) -> tuple:
        rt = self.rt
        ship = []
        # The canonical encoding (``enc``) exists only to rematch sends
        # regenerated after a rollback against their stale epoch.  With
        # no epoch open — the common, rollback-free case — defer it:
        # a rollback re-encodes its tail from the raw records, which
        # are immutable once shipped.
        match = bool(self.epochs)
        for raw in rt.fabric.take_outbox():
            if id(raw) in self.shipped:
                continue  # restored copy of an already-shipped record
            wire = encode_record(raw)
            enc = None
            tok = None
            if match:
                enc = pickle.dumps(wire, pickle.HIGHEST_PROTOCOL)
                tok = self._match_stale(enc)
            if tok is None:
                tok = (self.shard_id, self.next_token)
                self.next_token += 1
                ship.append((tok, wire))
            else:
                self.stats["dedups"] += 1
            self.sent.append((tok, raw, enc, raw[1], raw[0]))
            self.shipped[id(raw)] = raw
        antis = self._flush_epochs(self.flush_pending)
        self.flush_pending = False
        floor = _INF
        for ep in self.epochs:
            f = ep.floor()
            if f < floor:
                floor = f
        # sim.now rides along so the coordinator can detect straggler
        # rounds (a routed arrival at or below the destination's clock)
        # and adapt the speculation horizon.
        return ("state", rt.sim.next_event_time(), ship, antis, floor,
                rt.sim.now)

    def _match_stale(self, enc: bytes) -> Optional[tuple]:
        for ep in self.epochs:
            entries = ep.by_enc.get(enc)
            if entries:
                tok, _dst, _ha = entries.pop(0)
                if not entries:
                    del ep.by_enc[enc]
                ep.count -= 1
                return tok
        return None

    def _flush_epochs(self, force: bool) -> List[tuple]:
        """Close epochs whose rollback origin the clock has re-passed
        (every pre-divergence send has regenerated and rematched by
        then); survivors are divergent sends that will never regenerate
        — emit their anti-messages.  ``force`` closes all epochs (the
        coordinator's quiescence flush)."""
        now = self.rt.sim.now
        out: List[tuple] = []
        keep: List[_Epoch] = []
        for ep in self.epochs:
            if force or now >= ep.old_now:
                for entries in ep.by_enc.values():
                    for tok, dst, ha in entries:
                        out.append((dst, tok, ha))
                self.stats["antis"] += ep.count
            else:
                keep.append(ep)
        self.epochs = keep
        return out

    # -- barrier steps 3-8: repair, admit, fossil, checkpoint ----------

    def do_round(self, bound: float, gvt: float, inbox: List[tuple],
                 antis: List[tuple], flush: bool) -> None:
        rt = self.rt
        sim = rt.sim
        now = sim.now
        h = _INF
        kill = set()
        for tok, ha in antis:
            rec = self.input_index.get(tok)
            if rec is None:
                raise ParallelEngineError(
                    f"anti-message for unknown token {tok!r} on shard "
                    f"{self.shard_id}"
                )
            self.dead[id(rec)] = rec
            self.orphaned.add(id(rec))
            self.stats["antis_received"] += 1
            if ha > now:
                kill.add(id(rec))  # not yet executed: unlink in place
            elif ha < h:
                h = ha  # executed: roll its effects back
        if kill:
            rt.fabric.engine_remove_records(kill)
        for _tok, rec in inbox:
            if rec[0] <= now and rec[0] < h:
                h = rec[0]  # straggler in our simulated past
        if h < _INF:
            self._rollback(h)
        for tok, rec in inbox:
            self.input_index[tok] = rec
            self.input_log.append((tok, rec))
            rt.fabric.admit_remote(rec)
        self._fossil(gvt)
        self.flush_pending = flush
        self.bound = bound
        # Checkpoint on an event-count cadence, not per round: capture
        # cost (a full owned-state snapshot) must amortize over real
        # event work, or horizon-mode runs with thousands of short
        # rounds pay more for snapshots than for simulation.  Cadence
        # is a pure rollback-depth/capture-cost tradeoff — fossil
        # collection always retains a checkpoint below GVT, so any
        # straggler keeps a legal rollback base at any cadence.
        if sim.pending_active and (
            not self.cps
            or sim.events_processed - self.cps[-1].events_processed
            >= self.cp_events
        ):
            self._checkpoint()

    def _checkpoint(self) -> None:
        self.cps.append(ShardCheckpoint.capture(
            self.rt, self.owned, len(self.input_log), len(self.sent)
        ))
        self.stats["checkpoints"] += 1

    def _rollback(self, h: float) -> None:
        rt = self.rt
        cps = self.cps
        idx = None
        for i in range(len(cps) - 1, -1, -1):
            if cps[i].now < h:
                idx = i
                break
        if idx is None:
            raise ParallelEngineError(
                f"shard {self.shard_id}: straggler at t={h!r} precedes "
                "every retained checkpoint — GVT safety violated"
            )
        cp = cps[idx]
        del cps[idx + 1:]
        self.stats["rollbacks"] += 1
        self.stats["events_rolled_back"] += (
            rt.sim.events_processed - cp.events_processed
        )
        old_now = rt.sim.now
        # Sends shipped after the checkpoint move to a stale epoch —
        # except records generated *before* the checkpoint (they sit in
        # the restored outbox and stay shipped under their token).
        tail = self.sent[cp.sent_len:]
        del self.sent[cp.sent_len:]
        stale: Dict[tuple, tuple] = {}
        for tok, raw, enc, dst, ha in tail:
            if id(raw) in cp.outbox_ids:
                continue
            self.shipped.pop(id(raw), None)
            if enc is None:  # deferred by a rollback-free barrier_state
                enc = pickle.dumps(
                    encode_record(raw), pickle.HIGHEST_PROTOCOL
                )
            stale[tok] = (enc, dst, ha)
        if stale:
            self.epochs.append(_Epoch(old_now, stale))
        cp.restore(rt)
        if self.dead:
            rt.fabric.engine_remove_records(set(self.dead))
        # Re-admit the surviving input-log tail; each entry's arrival
        # lies above cp.now (the checkpoint that would contradict that
        # was deleted by the rollback that admitted the entry).
        for _tok, rec in self.input_log[cp.input_len:]:
            if id(rec) in self.dead:
                self.orphaned.discard(id(rec))
            else:
                rt.fabric.admit_remote(rec)

    def _fossil(self, gvt: float) -> None:
        """Keep the newest checkpoint strictly below GVT (any straggler
        or anti target is >= GVT, so it is always a legal rollback
        base) and everything after it."""
        cps = self.cps
        for i in range(len(cps) - 1, 0, -1):
            if cps[i].now < gvt:
                del cps[:i]
                return

    # -- barrier step 9: speculate -------------------------------------

    def run_segment(self) -> None:
        sim = self.rt.sim
        if self.bound < _INF:
            sim.run_before(self.bound)
            return
        # Unbounded (run-to-drain) window: checkpoint mid-run on the
        # event cadence, since no round barrier will interrupt us.
        while sim.pending_active:
            sim.run(max_events=self.cp_events)
            if sim.pending_active:
                self._checkpoint()

# ---------------------------------------------------------------------------
# Worker process and coordinator
# ---------------------------------------------------------------------------


class _GvtPlanner:
    """One GVT round of coordinator arithmetic.

    Owns the adaptive-horizon state: H=1 is exactly the conservative
    window — provably straggler-free — so collapse to it whenever a
    routed arrival lands in a shard's past (or on *any* routed
    traffic: records generated inside a round ship one barrier later,
    so any H > 1 risks a destination overrunning an in-flight
    arrival), and double it after every clean round.  Speculation is
    therefore aggressive through decoupled compute phases and
    conservative through latency-coupled (barrier/reduction) phases,
    which is where fixed horizons roll back persistently.
    """

    def __init__(self, n: int, shard_of_rank, delta: float,
                 horizon: Optional[float]) -> None:
        self.n = n
        self.shard_of_rank = shard_of_rank
        self.delta = delta
        self.horizon = horizon
        self.H = 1.0 if horizon is None else horizon
        self.h_cap = 2.0 ** 20
        self.rounds = 0

    def plan(self, states: List[tuple]) -> Tuple[
        float, float, bool, List[List[tuple]], List[List[tuple]]
    ]:
        """(gvt, bound, flush, inboxes, anti_boxes) for one round.

        ``gvt == inf`` means the run is globally drained — the caller
        broadcasts ``("done",)`` and collects finals; the other return
        values are then meaningless.
        """
        n = self.n
        self.rounds += 1
        nexts = [st[1] for st in states]
        nows = [st[5] for st in states]
        gvt = min(nexts + [st[4] for st in states])
        rec_floor = min(nexts)
        straggler = False
        inboxes: List[List[tuple]] = [[] for _ in range(n)]
        anti_boxes: List[List[tuple]] = [[] for _ in range(n)]
        for st in states:
            for tok, rec in st[2]:
                if rec[0] < gvt:
                    gvt = rec[0]
                if rec[0] < rec_floor:
                    rec_floor = rec[0]
                d = self.shard_of_rank(rec[1])
                if rec[0] <= nows[d]:
                    straggler = True
                inboxes[d].append((tok, rec))
            for dst_rank, tok, ha in st[3]:
                if ha < gvt:
                    gvt = ha
                d = self.shard_of_rank(dst_rank)
                if ha <= nows[d]:
                    straggler = True
                anti_boxes[d].append((tok, ha))
        if gvt == _INF:
            return gvt, _INF, False, inboxes, anti_boxes
        traffic = any(inboxes) or any(anti_boxes)
        # Quiescent but GVT-pinned: open epochs hold anti-message
        # candidates that can no longer regenerate (no shard has
        # work, nothing is in flight) — force their flush.
        flush = (not traffic) and all(nx == _INF for nx in nexts)
        if self.horizon is None:
            self.H = (
                1.0 if (straggler or traffic)
                else min(self.H * 2.0, self.h_cap)
            )
        bound = _INF
        if self.H < _INF and rec_floor < _INF:
            bound = rec_floor + self.H * self.delta
        return gvt, bound, flush, inboxes, anti_boxes


def _timewarp_worker(rt: "Runtime", shard_id: int, block: range, conn,
                     cp_events: int, incarnation: int = 0) -> None:
    """Worker-shard entry point (runs in a forked child)."""
    try:
        base = _enter_shard(rt, shard_id, block)
        tw = _TimeWarpShard(rt, shard_id, block, cp_events)
        pf = _proc_injector(rt, shard_id, incarnation)
        round_no = 0
        while True:
            round_no += 1
            if pf is not None:
                pf.at_barrier(round_no)
            conn.send(tw.barrier_state())
            msg = conn.recv()
            if msg[0] == "done":
                break
            _, bound, gvt, inbox, antis, flush = msg
            tw.do_round(bound, gvt, inbox, antis, flush)
            tw.run_segment()
        payload = _final_payload(rt, block, base)
        payload["events_processed"] -= len(tw.orphaned)
        payload["timewarp"] = tw.stats
        conn.send(("final", payload))
        conn.close()
    except BaseException:
        try:
            conn.send(("error", shard_id, traceback.format_exc()))
            conn.close()
        except Exception:  # pragma: no cover - pipe already gone
            pass
        os._exit(1)
    os._exit(0)


def run_timewarp(rt: "Runtime") -> float:
    """Run ``rt`` to completion under the optimistic engine.

    Serial fallbacks are identical to :func:`repro.sim.parallel.
    run_sharded` (single node, pre-scheduled events, daemonic caller,
    no ``fork``): one in-process shard, no speculation, no rollback —
    and the runtime-level fallback for fault/reliability profiles
    selects the legacy serial engine before either parallel mode is
    reached.  Otherwise the run goes through :func:`repro.resilience.
    supervisor.supervise_timewarp`.
    """
    n, ctx = _fork_plan(rt)
    if n == 1:
        now = _run_serial_inline(rt)
        rt.timewarp_stats = {k: 0 for k in STAT_KEYS}
        return now
    from ..resilience.supervisor import supervise_timewarp

    return supervise_timewarp(
        rt, ctx, shard_nodes(rt.fabric.topology, n), _lookahead(rt),
        HORIZON, CP_EVENTS,
    )
