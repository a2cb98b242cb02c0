"""Sharded conservative-lookahead parallel DES engine.

One large run is partitioned across N worker processes ("shards"), each
owning a contiguous block of *nodes* (see
:func:`repro.network.topology.shard_nodes`) and running its own
simulator over the full replicated runtime.  The engine is
event-queue-agnostic: it drives each shard only through
``next_event_time()`` and ``run_before(bound)``, and admits exchanged
records through the fabric's ordinary ``at`` calls, which every
:mod:`repro.sim.eventq` implementation (heap, calendar, compiled)
honors with the same ``(time, priority, seq)`` pop order — so
``--eventq`` composes freely with ``--shards`` and the bit-identity
guarantee below is unchanged.  Worker processes fork from
the coordinator's runtime, so all shards run the same queue.
Shards advance in lock-step **epoch windows**:

1. At a barrier every shard reports its next local event time and the
   cross-shard transfer records it buffered during the last window.
2. The coordinator — the parent process, which forks every shard but
   never runs an event (see :mod:`repro.resilience.supervisor`) —
   computes ``M``, the global minimum over those times and the
   head-arrival times of the exchanged records, and broadcasts the
   window bound ``W = M + delta`` where ``delta`` is the fabric's
   minimum cross-shard end-to-end latency
   (:meth:`~repro.network.base.Fabric.min_remote_latency`).
3. Every shard admits the records routed to it and runs all events
   strictly below ``W``.

The window is *conservative*: every event fired inside a window has
time ``t >= M``, and any cross-shard record it creates has head
arrival ``>= t + delta >= W`` — so no shard ever receives a record in
its simulated past, and no rollback is ever needed.

Determinism: arrivals are admitted per destination node in canonical
``(head_arrival, dst, src, k)`` order — ``k`` a per-source-PE counter
that is independent of the shard count — so ``--shards N`` produces
**bit-identical** results to ``--shards 1`` (which runs in-process but
with the same canonical admission order).  The legacy no-shards path
reserves receiver NICs in send order instead, so on Infiniband it can
differ from every explicit shard count.  Trace event/message *ids*
are process-local and therefore not part of that guarantee; all
report content is.

Cross-shard payloads travel in wire form, encoded from the record's
delivery callback (its only description): charm messages are re-built
on the destination shard, CkDirect handles crossing in a message
become sender-side *proxies* (``handle.remote``) whose puts carry the
handle id plus a snapshot of the source buffer back to the owning
shard's real handle.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
import traceback
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..charm.message import Message
from ..ckdirect.api import _complete
from ..ckdirect.handle import CkDirectHandle
from ..network.topology import shard_nodes
from ..util.buffers import Buffer

if TYPE_CHECKING:  # pragma: no cover
    from ..charm.runtime import Runtime


class ParallelEngineError(RuntimeError):
    """A sharded run violated an engine invariant (or a shard died)."""


# ---------------------------------------------------------------------------
# Wire codec for cross-shard records
# ---------------------------------------------------------------------------


class _HRef:
    """Wire form of a CkDirect handle crossing shards (in a message).

    Carries exactly what the sending side needs to build a proxy; the
    receiver-side callback and buffer stay with the real handle on the
    shard that created it.
    """

    __slots__ = ("hid", "recv_rank", "nbytes", "oob", "name")

    def __init__(self, hid, recv_rank, nbytes, oob, name) -> None:
        self.hid = hid
        self.recv_rank = recv_rank
        self.nbytes = nbytes
        self.oob = oob
        self.name = name


class _CRef:
    """Wire form of a CkCallback crossing shards (send/bcast/ignore)."""

    __slots__ = ("kind", "array_id", "index", "method")

    def __init__(self, kind, array_id, index, method) -> None:
        self.kind = kind
        self.array_id = array_id
        self.index = index
        self.method = method


def _encode_args(args: tuple) -> tuple:
    """Encode one message's argument tuple for the wire.

    Only top-level arguments are translated (the runtime wraps only
    top-level ndarrays too); handles/callbacks nested inside user
    containers are not supported across shards.
    """
    from ..charm.callback import CkCallback

    out = []
    for a in args:
        if isinstance(a, CkDirectHandle):
            out.append(_HRef(a.hid, a.recv_pe.rank, a.recv_buffer.nbytes,
                             a.oob, a.name))
        elif isinstance(a, CkCallback):
            if a.kind == "host":
                raise ParallelEngineError(
                    "a host-function callback cannot cross shards"
                )
            out.append(_CRef(a.kind, a.array.id if a.array is not None else None,
                             a.index, a.method))
        else:
            out.append(a)
    return tuple(out)


def _decode_args(rt: "Runtime", args: tuple) -> tuple:
    from ..charm.callback import CkCallback

    out = []
    for a in args:
        if isinstance(a, _HRef):
            h = CkDirectHandle(
                rt, rt.pes[a.recv_rank], Buffer.virtual(a.nbytes),
                a.oob, CkCallback.ignore(), None, a.name,
            )
            h.hid = a.hid  # the owning shard's id, carried back by puts
            h.remote = True
            out.append(h)
        elif isinstance(a, _CRef):
            if a.kind == "ignore":
                out.append(CkCallback.ignore())
            else:
                out.append(CkCallback(
                    a.kind, array=rt.collective(a.array_id),
                    index=a.index, method=a.method,
                ))
        else:
            out.append(a)
    return tuple(out)


def encode_record(rec: tuple) -> tuple:
    """Turn one outbox record into its picklable wire form.

    The record's delivery callback is the arrival's only description,
    and only two shapes may cross shards: ``partial(pe.enqueue, msg)``
    (a charm message) and ``partial(_complete, proxy, snap)`` (a put on
    a proxy handle, with its source snapshot).  Anything else raises.
    """
    *head, cb = rec
    if not isinstance(cb, partial):
        raise ParallelEngineError(
            "a bare-callback transfer crossed shards; only charm "
            "messages and proxy-handle puts can be shipped"
        )
    what = cb.args[0] if cb.args else None
    if isinstance(what, Message):
        wire = ("emsg", what.array_id, what.index, what.method,
                _encode_args(what.args), what.nbytes, what.src_pe,
                what.send_time, what.is_internal)
    elif isinstance(what, CkDirectHandle):
        if not what.remote:
            raise ParallelEngineError(
                "a local-handle CkDirect put crossed shards; remote "
                "senders must hold a proxy handle"
            )
        wire = ("put", what.hid, cb.args[1])
    else:
        raise ParallelEngineError(
            f"unknown cross-shard arrival {cb.func!r}"
        )
    return (*head, wire)


def deliver_remote(rt: "Runtime", dst_rank: int, wire: tuple) -> None:
    """Land one wire-form arrival on its destination PE."""
    if wire[0] == "emsg":
        (_, array_id, index, method, enc_args, nbytes, src_pe,
         send_time, is_internal) = wire
        msg = Message(array_id, index, method, _decode_args(rt, enc_args),
                      nbytes, src_pe, send_time, is_internal)
        rt.pes[dst_rank].enqueue(msg)
        return
    _, hid, snap = wire
    handle = rt._handles.get(hid)
    if handle is None:
        raise ParallelEngineError(
            f"cross-shard put for unknown handle #{hid} on "
            f"shard {rt.shard_id}"
        )
    _complete(handle, snap)


# ---------------------------------------------------------------------------
# Shard bring-up and reconciliation payloads
# ---------------------------------------------------------------------------


def _owned_ranks(rt: "Runtime", block: range) -> range:
    cpn = rt.fabric.topology.cores_per_node
    return range(block.start * cpn, min(block.stop * cpn, rt.n_pes))


def _enter_shard(rt: "Runtime", shard_id: int, block: range) -> dict:
    """Specialize this (forked) process to one shard; returns the
    baselines the final reconciliation payload is measured against."""
    rt.shard_id = shard_id
    rt.fabric._owned_nodes = frozenset(block)
    rt._flush_host_sends(owned_ranks=set(_owned_ranks(rt, block)))
    base = {
        "events": rt.sim.events_processed,
        "counters": dict(rt.trace.counters),
        "cpu": time.process_time(),
        "log_len": len(rt.tracer.events) if rt.tracer is not None else 0,
    }
    # Shards report their whole post-fork stats; anything inherited
    # from before the fork belongs to the parent's copy.
    rt.trace.stats.clear()
    return base


_PLAIN_SCALARS = (bool, int, float, complex, str, bytes, type(None))


def _is_plain_data(value: Any, depth: int = 0) -> bool:
    """True for values that are pure data (safe to ship between
    processes and overwrite on the receiving twin): scalars, numpy
    arrays, and containers thereof — not runtime wiring like proxies,
    chare arrays, or the Runtime itself."""
    import numpy as np

    if depth > 8:
        return False
    if isinstance(value, _PLAIN_SCALARS) or isinstance(value, np.generic):
        return True
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, (list, tuple, set, frozenset)):
        return all(_is_plain_data(v, depth + 1) for v in value)
    if isinstance(value, dict):
        return all(
            isinstance(k, _PLAIN_SCALARS) and _is_plain_data(v, depth + 1)
            for k, v in value.items()
        )
    return False


def _host_payload(rt: "Runtime") -> list:
    """Plain-data attributes of the registered host-state objects.

    Host callbacks (iteration monitors and the like) fire on shard 0,
    a forked child, so they mutate the *child's* copies; the data
    attributes ship home in shard 0's final payload while
    object-reference attributes (runtime wiring such as ``rt`` or the
    array proxy) keep the parent's originals."""
    return [
        {k: v for k, v in obj.__dict__.items() if _is_plain_data(v)}
        for obj in rt._host_state
    ]


def _queue_stats(q) -> tuple:
    """A scheduler queue's four statistics, in shipping order."""
    return (q.enqueued, q.dequeues, q.max_occupancy, q.occupancy_sum)


def _set_queue_stats(q, stats: tuple) -> None:
    q.enqueued, q.dequeues, q.max_occupancy, q.occupancy_sum = stats


def _final_payload(rt: "Runtime", block: range, base: dict) -> dict:
    """What a worker shard ships home after its last window."""
    counters = {
        name: val - base["counters"].get(name, 0)
        for name, val in rt.trace.counters.items()
        if val != base["counters"].get(name, 0)
    }
    pes = {}
    for r in _owned_ranks(rt, block):
        pe = rt.pes[r]
        pes[r] = (pe.busy_until, pe.busy_time, _queue_stats(pe.queue),
                  _queue_stats(pe.internal_queue))
    states: Dict[tuple, dict] = {}
    owned = set(_owned_ranks(rt, block))
    for aid, arr in rt.arrays.items():
        for idx, elem in arr.elements.items():
            if elem._pe.rank in owned:
                s = elem.shard_state()
                if s is not None:
                    states[(aid, idx)] = s
    events = []
    if rt.tracer is not None:
        events = [
            (e.eid, e.kind, e.run, e.pe, e.category, e.name, e.t0, e.t1,
             e.cause, e.args)
            for e in rt.tracer.events[base["log_len"]:]
        ]
    payload = {
        "now": rt.sim.now,
        "events_processed": rt.sim.events_processed - base["events"],
        "counters": counters,
        "stats": dict(rt.trace.stats),
        "pes": pes,
        "states": states,
        "trace_events": events,
        "cpu": time.process_time() - base["cpu"],
    }
    if rt.shard_id == 0:
        payload["host"] = _host_payload(rt)
    return payload


def _merge_final(rt: "Runtime", payload: dict) -> None:
    """Fold one worker shard's reconciliation payload into the parent."""
    rt.sim._now = max(rt.sim._now, payload["now"])
    rt._extra_events += payload["events_processed"]
    for name, delta in payload["counters"].items():
        rt.trace.counters[name] += delta
    for name, st in payload["stats"].items():
        rt.trace.stats[name].merge(st)
    for rank, (busy_until, busy_time, queue, internal) in payload["pes"].items():
        pe = rt.pes[rank]
        pe.busy_until = busy_until
        pe.busy_time = busy_time
        _set_queue_stats(pe.queue, queue)
        _set_queue_stats(pe.internal_queue, internal)
    for (aid, idx), state in payload["states"].items():
        rt.arrays[aid].elements[idx].shard_load(state)
    for obj, attrs in zip(rt._host_state, payload.get("host", ())):
        obj.__dict__.update(attrs)
    log = rt.tracer
    if log is not None and payload["trace_events"]:
        from ..projections.events import TraceEvent

        # Post-fork eids collide across shards; remap into the parent's
        # namespace.  A cause allocated *before* the fork already exists
        # in the parent's log under its original id.
        eid_map = {rec[0]: log.next_id() for rec in payload["trace_events"]}
        for (eid, kind, run, pe, category, name, t0, t1, cause,
             args) in payload["trace_events"]:
            log.events.append(TraceEvent(
                eid_map[eid], kind, run, pe, category, name, t0, t1,
                eid_map.get(cause, cause) if cause is not None else None,
                args,
            ))


# ---------------------------------------------------------------------------
# The epoch loop
# ---------------------------------------------------------------------------


def _make_shard_of_rank(topo, blocks: List[range]):
    """PE rank -> shard id, from the node blocks' PE-rank uppers."""
    bounds = [b.stop * topo.cores_per_node for b in blocks]

    def shard_of_rank(rank: int) -> int:
        for s, hi in enumerate(bounds):
            if rank < hi:
                return s
        raise ParallelEngineError(f"PE {rank} outside every shard")

    return shard_of_rank


def _route_window(
    nexts: List[float], outboxes: List[List[tuple]], n: int, shard_of_rank,
) -> Tuple[float, List[List[tuple]]]:
    """The conservative coordinator's deterministic round computation:
    the global floor ``M`` and the per-shard inboxes for one barrier's
    states."""
    inboxes: List[List[tuple]] = [[] for _ in range(n)]
    floor = min(nexts)
    for out in outboxes:
        for rec in out:
            if rec[0] < floor:
                floor = rec[0]
            inboxes[shard_of_rank(rec[1])].append(rec)
    return floor, inboxes


def _proc_injector(rt: "Runtime", shard_id: int, incarnation: int):
    """The worker's ProcFaultInjector, or None without a proc plan."""
    plan = getattr(rt, "proc_faults", None)
    if plan is None or not plan.rules:
        return None
    from ..faults.injector import ProcFaultInjector

    return ProcFaultInjector(plan, shard_id, incarnation)


#: Seconds between a waiting worker's checks that its coordinator lives.
COORDINATOR_CHECK_S = 1.0


def _next_window(conn, shard_id: int, coordinator: int) -> tuple:
    """The coordinator's answer to this worker's state message.

    A killed coordinator never closes the channel: each worker inherits
    the coordinator's end of its own link, and so does every sibling
    forked after it, so EOF never comes.  The worker therefore waits in
    slices and checks its parent between them.  Once it has been
    reparented, it releases the channel's persistent resources (the
    ring segments under ``--transport shm``) and raises.
    """
    while not conn.poll(COORDINATOR_CHECK_S):
        if os.getppid() != coordinator:
            conn.unlink()
            conn.close()
            raise ParallelEngineError(
                f"shard {shard_id}: coordinator pid {coordinator} is gone"
            )
    return conn.recv()


def _shard_worker(
    rt: "Runtime", shard_id: int, block: range, conn, incarnation: int = 0,
) -> None:
    """Worker-shard entry point (runs in a forked child)."""
    try:
        # Recorded by the coordinator before the fork, so a coordinator
        # that dies before this line is still told apart from a reaper.
        coordinator = mp.parent_process().pid
        base = _enter_shard(rt, shard_id, block)
        pf = _proc_injector(rt, shard_id, incarnation)
        sim, fab = rt.sim, rt.fabric
        round_no = 0
        while True:
            round_no += 1
            if pf is not None:
                pf.at_barrier(round_no)
            outbox = [encode_record(r) for r in fab.take_outbox()]
            conn.send(("state", sim.next_event_time(), outbox))
            msg = _next_window(conn, shard_id, coordinator)
            if msg[0] == "done":
                break
            _, bound, inbox = msg
            for *head, wire in inbox:
                fab.admit_remote(
                    (*head, partial(deliver_remote, rt, head[1], wire))
                )
            sim.run_before(bound)
        conn.send(("final", _final_payload(rt, block, base)))
        conn.close()
    except BaseException:
        tb = traceback.format_exc()
        try:
            conn.send(("error", shard_id, tb))
            conn.close()
        except Exception:  # channel gone: the coordinator never reads it
            sys.stderr.write(tb)
        os._exit(1)
    os._exit(0)


def _run_serial_inline(rt: "Runtime") -> float:
    """One in-process shard: identical engine semantics, no fork.

    Also the supervisor's degradation target — the coordinator's
    runtime is untouched (host sends still buffered, no events run),
    so falling back here reproduces the serial run exactly.
    """
    rt._flush_host_sends()
    c0 = time.process_time()
    rt.sim.run()
    # One-entry critical path, measured exactly like the forked
    # shards measure theirs (run phase only) — the speedup
    # benchmark compares max(shard_cpu_times) across shard counts.
    rt.shard_cpu_times = [time.process_time() - c0]
    return rt.sim.now


def _fork_plan(rt: "Runtime") -> Tuple[int, Optional[Any]]:
    """(effective shard count, fork context) for a sharded run.

    The count is clamped to the topology's node count.  A single
    in-process shard (identical semantics, no fork) runs when that
    leaves one shard, when events were scheduled directly on the
    simulator before the run (their shard affinity is unknowable), when
    the platform has no ``fork`` start method, or when the calling
    process is itself a daemonic worker (e.g. a sweep-pool process,
    which may not fork children of its own).
    :class:`~repro.charm.runtime.Runtime` refuses a shard count with
    fault plans or reliability, so a faulted run never reaches here.
    """
    n = min(rt.shards or 1, rt.fabric.topology.n_nodes)
    if n > 1 and rt.sim.pending:
        n = 1
    ctx = None
    if n > 1:
        if mp.current_process().daemon:
            n = 1
        else:
            try:
                ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platform
                n = 1
    return n, ctx


def _reap_shard(conn, proc, graceful_timeout: float = 30.0) -> Optional[int]:
    """Tear one shard down without leaking a zombie, its pipe fds, or
    its shared-memory segments.

    Ladder: close our channel end, join; if still alive ``terminate()``
    and re-join *bounded*; a worker wedged with SIGTERM ignored gets
    ``kill()`` (SIGKILL, uncatchable) and a final reap.  Once the
    process is dead the channel's persistent resources are unlinked
    (``--transport shm``: both ring segments plus any spill segments
    the worker abandoned — no ``/dev/shm`` entry survives even a
    SIGKILL).  Returns the exit code (None only if the child survived
    SIGKILL, which the kernel does not allow for an unblocked
    process).
    """
    if conn is not None:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
    proc.join(timeout=graceful_timeout)
    if proc.is_alive():  # hung shard: escalate, bounded
        proc.terminate()
        proc.join(timeout=5.0)
    if proc.is_alive():  # SIGTERM ignored/blocked: SIGKILL
        proc.kill()
        proc.join(timeout=10.0)
    code = proc.exitcode
    if code is not None:
        proc.close()  # release the Process object's fds now, not at gc
    if conn is not None:
        unlink = getattr(conn, "unlink", None)
        if unlink is not None:
            unlink()
    return code


def _lookahead(rt: "Runtime") -> float:
    """The fabric's window width ``delta``; must be positive."""
    delta = rt.fabric.min_remote_latency()
    if not delta > 0.0:
        raise ParallelEngineError(
            f"fabric lookahead must be positive, got {delta!r}"
        )
    return delta


def run_sharded(rt: "Runtime") -> float:
    """Run ``rt`` to completion under the sharded engine.

    Serial fallbacks are listed on :func:`_fork_plan`.  Otherwise the
    run goes through :func:`repro.resilience.supervisor.
    supervise_conservative`, which forks every shard and restarts
    crashed or hung workers deterministically.
    """
    n, ctx = _fork_plan(rt)
    if n == 1:
        return _run_serial_inline(rt)
    from ..resilience.supervisor import supervise_conservative

    return supervise_conservative(
        rt, ctx, shard_nodes(rt.fabric.topology, n), _lookahead(rt)
    )
