"""The runtime: machine instantiation, sends, broadcasts, execution.

A :class:`Runtime` owns a :class:`~repro.sim.Simulator`, one fabric, a
set of :class:`~repro.charm.pe.PE`\\ s, and the chare arrays created on
them.  Host code (the "mainchare" role) builds arrays, injects initial
messages, then calls :meth:`run`; the simulation completes when no
events remain — message-driven programs terminate by falling silent.

Typical driver::

    rt = Runtime(ABE, n_pes=64)
    arr = rt.create_array(MyChare, dims=(8, 8), ctor_args=(...,))
    arr.proxy.bcast("start")
    rt.run()
    print(rt.now, rt.trace.summary())
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Type

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan, ProcFaultPlan, ReliabilityParams
    from .section import ArraySection

from ..config import ConfigError, current
from ..network import Fabric, MachineParams, make_fabric
from ..projections.events import CAT_MSG, HOST_TRACK
from ..projections.eventlog import current_tracer
from ..sim import Simulator, Trace, make_simulator
from .array import ChareArray
from .callback import CkCallback
from .chare import Chare
from .errors import CharmError, ContextError, EntryMethodError
from .mapping import CustomMap, Mapping
from .message import Message, Payload, payload_bytes, unwrap_args, wrap_args
from .pe import PE
from .reduction import CONTROL_BYTES, ReductionManager

#: argument types that make a message carry bulk data.
_BULK = (Payload, np.ndarray)

# The cyclic collector is process-wide, while runs overlap: ``repro
# serve`` runs jobs on executor threads, and a host callback may start
# a nested run.  So the first run to start turns the collector off and
# the last one to end puts back the state the first one found.
_gc_lock = threading.Lock()
_gc_runs = 0
_gc_was_enabled = False


@contextmanager
def _collector_off():
    global _gc_runs, _gc_was_enabled
    with _gc_lock:
        if _gc_runs == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_runs += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_runs -= 1
            if _gc_runs == 0 and _gc_was_enabled:
                gc.enable()


class _PEAgent(Chare):
    """Internal per-PE runtime agent carrying collectives traffic."""

    def _reduction_partial(self, array_id, seq, child_pe, value, reducer):
        self.rt.reductions.receive_partial(array_id, seq, child_pe, value, reducer)

    def _bcast_stage(self, collective_id, method, args):
        rt = self.rt
        collective = rt.collective(collective_id)
        me = self.my_pe
        nbytes = CONTROL_BYTES + payload_bytes(args)
        for child in collective.tree_children(me):
            rt.send(
                rt.agents,
                (child,),
                "_bcast_stage",
                (collective_id, method, args),
                internal=True,
                nbytes_override=nbytes,
            )
        target = collective.base_array
        for idx in collective.local_elements.get(me, ()):
            rt.send(target, idx, method, args)


class Runtime:
    """A simulated Charm++-style runtime instance.

    ``fault_plan`` installs a :class:`~repro.faults.FaultInjector` on
    the fabric and arms the CkDirect reliability layer (sequence
    numbers, ack/retransmit timers, the poll watchdog, charm-path
    fallback).  ``reliability`` overrides the layer's default knobs; it
    may also be passed alone to run the protocol on a perfect fabric.
    Without either, none of that machinery exists — the fabric methods
    are unwrapped and the put path is the paper's fire-and-forget one.
    Either one with an explicit ``shards`` count raises
    :class:`CharmError`: a faulted run is serial.
    """

    #: how the sharded engine (``--shards N``) synchronizes: epoch
    #: windows of the fabric's lookahead, its only mode.  Run records
    #: report it.
    engine = "conservative"

    def __init__(
        self,
        machine: MachineParams,
        n_pes: int,
        fault_plan: Optional["FaultPlan"] = None,
        reliability: Optional["ReliabilityParams"] = None,
        shards: Optional[int] = None,
        proc_faults: Optional["ProcFaultPlan"] = None,
        transport: Optional[str] = None,
    ) -> None:
        if n_pes <= 0:
            raise CharmError(f"n_pes must be positive, got {n_pes}")
        try:
            cfg = current().replace(shards=shards, transport=transport)
        except ConfigError as exc:
            raise CharmError(str(exc)) from None
        if shards is not None and (fault_plan is not None
                                   or reliability is not None):
            # The fault injector and the reliability watchdog read
            # cross-PE state synchronously, so they cannot be sharded.
            raise CharmError(
                f"shards={shards} cannot run with fault injection or the "
                "reliability layer; leave shards unset for a faulted run"
            )
        #: shard IPC transport: "pipe" (Connection reference path) or
        #: "shm" (one-sided sentinel rings, see repro.sim.shm).
        #: Results are bit-identical either way — it only moves bytes.
        self.transport = cfg.transport
        self.machine = machine
        # Every queue implementation pops the same (time, priority,
        # seq) order, so results are bit-identical whichever backs it.
        self.sim = make_simulator(cfg.eventq)
        self.trace = Trace()
        #: timeline tracer (None = tracing off, the near-zero-cost
        #: default): the ambient one that ``--trace-out``, ``tracing()``
        #: and sweep workers install.
        self.tracer = current_tracer()
        self._trace_run = (
            self.tracer.new_run(f"charm:{machine.name}", owner=self, n_pes=n_pes)
            if self.tracer is not None else 0
        )
        self.fabric: Fabric = make_fabric(self.sim, machine, n_pes, self.trace)
        if self.tracer is not None:
            self.fabric.tracer = self.tracer
            self.fabric.trace_run = self._trace_run
        self.fault_injector = None
        self.reliability = None
        self.watchdog = None
        #: reliable puts issued but not yet acknowledged, by handle id.
        self._reliable_inflight: Dict[int, Any] = {}
        if fault_plan is not None or reliability is not None:
            from ..faults import FaultInjector, ReliabilityParams
            from .scheduler import PollWatchdog

            self.reliability = reliability if reliability is not None \
                else ReliabilityParams()
            self.watchdog = PollWatchdog(self, self.reliability)
            if fault_plan is not None:
                self.fault_injector = FaultInjector(
                    fault_plan, self.sim, self.trace
                )
                self.fault_injector.attach(self.fabric)
        # --- parallel engine (see repro.sim.parallel) ------------------
        #: requested shard count; None = the serial path.  Engine mode
        #: is on exactly when it is set (only an explicit argument arms
        #: the engine: the app drivers pass the configured count).
        self.shards = shards
        #: CkDirect handles created by this process, by hid (the
        #: receiver-side registry cross-shard puts resolve against).
        self._handles: Dict[int, Any] = {}
        #: host sends buffered until the shard layout is known.
        self._pending_host_sends: List[tuple] = []
        self._defer_host_sends = False
        #: events fired by *other* shards, folded in after a sharded run.
        self._extra_events = 0
        #: shard id of this process (0 = coordinator / serial).
        self.shard_id = 0
        #: per-shard CPU seconds of the last sharded run (bench metric).
        self.shard_cpu_times: Optional[List[float]] = None
        #: next CkDirect handle id; per runtime, so ids (and default
        #: channel names) do not depend on earlier runs in the process.
        self._next_hid = 1
        #: Host-side objects mutated by host callbacks (iteration
        #: monitors and the like), registered via register_host_state().
        self._host_state: List[Any] = []
        #: epoch windows of the last sharded run, or None when the last
        #: run was serial.  Each window is one coordinator barrier.
        self.parallel_rounds: Optional[int] = None
        #: process-scope chaos plan (``repro chaos --proc``): rules that
        #: SIGKILL/wedge/slow shard *workers* at epoch barriers.  Read
        #: by the workers themselves; None = no process faults.
        self.proc_faults = proc_faults
        #: supervision report of the last sharded run (restarts,
        #: crash/hang counts, degraded flag — see
        #: :meth:`repro.resilience.ShardSupervisor.report`), or None
        #: when the run did not fork shards.
        self.supervision: Optional[Dict[str, Any]] = None
        #: coordinator-side transport counters of the last sharded run
        #: (transport name, frames, bytes, spills), or None when the
        #: run was serial.
        self.transport_stats: Optional[Dict[str, Any]] = None
        if shards is not None:
            self.fabric.enable_engine()
            self._defer_host_sends = True
        self.n_pes = n_pes
        self.pes: List[PE] = [PE(self, r) for r in range(n_pes)]
        self.arrays: Dict[int, ChareArray] = {}
        self.sections: Dict[int, "ArraySection"] = {}
        self._next_array_id = 1
        self.reductions = ReductionManager(self)
        self._pe_stack: List[PE] = []
        #: the internal agent array: one element per PE, identity-mapped.
        self.agents = self.create_array(
            _PEAgent, dims=(n_pes,), mapping=CustomMap(lambda idx, dims, n: idx[0]),
            internal=True,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def create_array(
        self,
        cls: Type[Chare],
        dims: Tuple[int, ...],
        ctor_args: tuple = (),
        ctor_kwargs: Optional[dict] = None,
        mapping: Optional[Mapping] = None,
        internal: bool = False,
    ) -> ChareArray:
        """Create a chare array; elements are constructed immediately."""
        aid = self._next_array_id
        self._next_array_id += 1
        arr = ChareArray(
            self, aid, cls, tuple(dims), ctor_args, ctor_kwargs, mapping, internal
        )
        self.arrays[aid] = arr
        return arr

    def create_section(self, array: ChareArray, indices) -> "ArraySection":
        """Register a section (sub-array collective) over ``indices``."""
        from .section import ArraySection

        sid = self._next_array_id
        self._next_array_id += 1
        section = ArraySection(sid, array, indices)
        self.sections[sid] = section
        return section

    def collective(self, collective_id: int):
        """Resolve an array or section by collective id."""
        got = self.arrays.get(collective_id) or self.sections.get(collective_id)
        if got is None:
            raise CharmError(f"unknown collective id {collective_id}")
        return got

    # ------------------------------------------------------------------
    # Execution context
    # ------------------------------------------------------------------

    @property
    def current_pe(self) -> Optional[PE]:
        """The PE whose context is executing, or None in host code."""
        return self._pe_stack[-1] if self._pe_stack else None

    def _enter_pe(self, pe: PE) -> None:
        self._pe_stack.append(pe)

    def _exit_pe(self) -> None:
        self._pe_stack.pop()

    def host_call(self, fn, *args: Any) -> None:
        """Run ``fn`` outside any PE at the current simulated instant.

        The call fires as its own simulator event, which always runs at
        top level — by then no PE context is active.
        """
        pe = self.current_pe
        at = pe.cursor if pe is not None else self.sim.now
        self.sim.at(at, fn, *args)

    def register_host_state(self, obj: Any) -> None:
        """Declare a host-side object whose state host callbacks mutate.

        In a forked sharded run, host callbacks (e.g. iteration monitors
        reacting to barriers) fire on shard 0, a child process, so they
        mutate the child's copy.  Shard 0 ships the plain-data
        attributes of every registered object home with its final
        payload, and the parent's copy takes them over, so the caller
        reads the same state as after a serial run.  A run that does
        not fork never reads the registry.
        """
        if not any(o is obj for o in self._host_state):
            self._host_state.append(obj)

    def _alloc_hid(self) -> int:
        """Allocate the next CkDirect handle id."""
        hid = self._next_hid
        self._next_hid += 1
        return hid

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send(
        self,
        array: ChareArray,
        index,
        method: str,
        args: tuple = (),
        internal: bool = False,
        nbytes_override: Optional[int] = None,
    ) -> None:
        """Send an entry-method invocation to one array element.

        From a PE context this charges the sender's software overhead
        (and marshalling copies for packed payloads) and the transfer
        begins at the sender's local cursor.  From host code it is an
        injection at the current simulated time, free of charge — the
        bootstrap path.
        """
        elem = array.probe(index)
        if elem is not None:
            idx = elem.thisIndex
            dst_rank = elem._pe.rank
        else:
            idx = array.normalize_index(index)
            dst_rank = array.pe_of(idx)
        if type(args) is not tuple:
            args = tuple(args)
        # One scan decides: only a message carrying a Payload or an
        # ndarray is wrapped, sized, marshalled and later unwrapped.
        bulk = False
        for a in args:
            if isinstance(a, _BULK):
                bulk = True
                break
        if bulk:
            args = wrap_args(args)
            nbytes = (nbytes_override if nbytes_override is not None
                      else payload_bytes(args))
        else:
            nbytes = nbytes_override if nbytes_override is not None else 0
        stack = self._pe_stack
        src = stack[-1] if stack else None

        if src is not None:
            if bulk:
                args = self._marshal(src, args)
            src.charge(self.machine.charm.send_overhead)
            start = src._cursor  # charge() succeeded: src is executing
            src_rank: Optional[int] = src.rank
        else:
            start = self.sim.now
            src_rank = None

        msg = Message(array.id, idx, method, args, nbytes, src_rank, start,
                      internal, bulk)
        counters = self.trace.counters
        counters["charm.msgs_sent"] += 1
        counters["charm.msg_bytes"] += nbytes
        tr = self.tracer
        if tr is not None:
            msg.trace_eid = tr.instant(
                self._trace_run,
                src_rank if src_rank is not None else HOST_TRACK,
                CAT_MSG, f"send:{method}", start, cause=tr.current,
                args={"msg": msg.id, "bytes": nbytes, "dst_pe": dst_rank},
            )
        dst_pe = self.pes[dst_rank]
        if src_rank is None or src_rank == dst_rank:
            if src_rank is None and self._defer_host_sends:
                # Sharded run not started yet: the shard layout decides
                # which process owns dst, so buffer the injection.
                self._pending_host_sends.append((start, dst_rank, msg))
            else:
                owned = self.fabric._owned_nodes
                if (src_rank is None and owned is not None
                        and self.fabric.topology.node_of(dst_rank) not in owned):
                    # A mid-run host injection is instantaneous, which
                    # only works when the target shares this shard —
                    # reduction/broadcast roots must live on shard 0.
                    raise CharmError(
                        f"host send to PE {dst_rank} owned by another "
                        "shard; root chares of host-driven collectives "
                        "must map to shard 0"
                    )
                # Host injection or PE-local delivery: straight to queue.
                self.sim.at(start, dst_pe.enqueue, msg)
        else:
            # The callback is the arrival's only description: the
            # sharded engine reads the message back out of it.
            self.fabric.charm_transport(
                src_rank, dst_rank, nbytes, start, partial(dst_pe.enqueue, msg)
            )

    def _marshal(self, pe: Optional[PE], args: tuple) -> tuple:
        """The wire form of ``args``: ``pe`` (None = host, free) is
        charged one copy per packed payload, and every payload travels
        unpacked, so no later hop charges the copy again."""
        if pe is not None:
            charm = self.machine.charm
            for a in args:
                if isinstance(a, Payload) and a.pack and a.nbytes:
                    pe.charge(charm.copy_base + a.nbytes * charm.copy_per_byte)
                    self.trace.count("charm.pack_copies")
        return tuple(a.marshalled() if isinstance(a, Payload) else a for a in args)

    def bcast(self, array, method: str, args: tuple = ()) -> None:
        """Invoke ``method`` on every member of an array *or section*
        via its home-PE tree."""
        # Marshal once; down-tree stages must not re-charge packing.
        args = self._marshal(self.current_pe, wrap_args(args))
        root = array.home_pes[0]
        self.send(
            self.agents,
            (root,),
            "_bcast_stage",
            (array.id, method, args),
            internal=True,
            nbytes_override=CONTROL_BYTES + payload_bytes(args),
        )

    def _flush_host_sends(self, owned_ranks=None) -> None:
        """Inject deferred host sends (those targeting owned PEs)."""
        pending, self._pending_host_sends = self._pending_host_sends, []
        self._defer_host_sends = False
        for start, dst_rank, msg in pending:
            if owned_ranks is None or dst_rank in owned_ranks:
                self.sim.at(start, self.pes[dst_rank].enqueue, msg)

    # ------------------------------------------------------------------
    # Delivery (called by PEs)
    # ------------------------------------------------------------------

    def _deliver(self, pe: PE, msg: Message) -> None:
        array = self.arrays.get(msg.array_id)
        if array is None:
            raise EntryMethodError(f"message for unknown array {msg.array_id}")
        elem = array.elements.get(msg.index)
        if elem is None:
            raise EntryMethodError(
                f"message for missing element {msg.index} of array {msg.array_id}"
            )
        entry = getattr(elem, msg.method, None)
        if entry is None or not callable(entry):
            raise EntryMethodError(
                f"{type(elem).__name__} has no entry method {msg.method!r}"
            )
        stack = self._pe_stack
        stack.append(pe)
        try:
            if msg.bulk:
                entry(*unwrap_args(msg.args))
            else:
                entry(*msg.args)
        finally:
            stack.pop()

    # ------------------------------------------------------------------
    # Reliability bookkeeping (no-ops unless built with a fault plan)
    # ------------------------------------------------------------------

    def _note_inflight(self, handle) -> None:
        """A reliable put was issued; keep the watchdog watching it."""
        self._reliable_inflight[handle.hid] = handle
        if self.watchdog is not None:
            self.watchdog.arm()

    def _note_acked(self, handle) -> None:
        """The handle's newest put was acknowledged; stop watching."""
        self._reliable_inflight.pop(handle.hid, None)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now

    @property
    def events_processed(self) -> int:
        """Events fired across all shards of this run (== the serial
        count; in a sharded run remote shards report their tallies)."""
        return self.sim.events_processed + self._extra_events

    def run(self) -> float:
        """Run the simulation until no event remains; returns the final
        simulated time.

        With ``shards`` set the run is dispatched to the sharded
        parallel engine.

        The cyclic collector is off for the run: the event loop makes
        no cyclic garbage, and each full collection would walk every
        live PE, chare, handle and buffer.  Shard workers fork with it
        off.  The caller's setting is back when ``run`` returns or
        raises.
        """
        with _collector_off():
            if self.fabric._engine:
                from ..sim.parallel import run_sharded
                return run_sharded(self)
            self.sim.run()
            return self.sim.now

    def close(self) -> None:
        """Free a finished run by reference counting.

        Cuts the cycles that tie the runtime to its PEs, arrays,
        sections, collectives, host-state objects and handles, each
        array to its proxy and elements, each chare to the CkDirect
        handles whose callbacks are its bound methods, and each PE to
        the handles in its poll queue.  The run's records stay:
        ``trace``, ``sim`` (``now``, ``events_processed``),
        ``transport_stats``, ``supervision``, ``parallel_rounds`` and
        ``shard_cpu_times``.  A closed runtime cannot run again.  The
        drivers call this once they have read their results.
        """
        for arr in self.arrays.values():
            for elem in arr.elements.values():
                vars(elem).clear()
            vars(arr).clear()
        for pe in self.pes:
            pe.pollq.clear()
        self.pes = []
        self.arrays = {}
        self.sections = {}
        self.agents = None
        self.reductions = None
        self._handles = {}
        self._host_state = []

    @property
    def makespan(self) -> float:
        """End of all activity: the last event or the furthest busy
        frontier (compute charges extend past the final event)."""
        frontier = max((pe.busy_until for pe in self.pes), default=0.0)
        return max(self.sim.now, frontier)

    def utilization(self) -> float:
        """Mean fraction of the makespan PEs spent busy."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return sum(pe.busy_time for pe in self.pes) / (self.n_pes * span)
