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

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan, ProcFaultPlan, ReliabilityParams
    from .section import ArraySection

from ..config import ConfigError, current
from ..network import Fabric, MachineParams, make_fabric
from ..projections.events import CAT_MSG, HOST_TRACK
from ..projections.eventlog import EventLog, current_tracer
from ..sim import Simulator, Trace, make_simulator
from .array import ChareArray
from .callback import CkCallback
from .chare import Chare
from .errors import CharmError, ContextError, EntryMethodError
from .mapping import CustomMap, Mapping
from .message import Message, Payload, payload_bytes, unwrap_args, wrap_args
from .pe import PE
from .reduction import CONTROL_BYTES, ReductionManager


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
    """

    #: how the sharded engine (``--shards N``) synchronizes: epoch
    #: windows of the fabric's lookahead, its only mode.  Run records
    #: report it.
    engine = "conservative"

    def __init__(
        self,
        machine: MachineParams,
        n_pes: int,
        record_samples: bool = False,
        tracer: Optional[EventLog] = None,
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
        #: shard IPC transport: "pipe" (Connection reference path) or
        #: "shm" (one-sided sentinel rings, see repro.sim.shm).
        #: Results are bit-identical either way — it only moves bytes.
        self.transport = cfg.transport
        self.machine = machine
        # Every queue implementation pops the same (time, priority,
        # seq) order, so results are bit-identical whichever backs it.
        self.sim = make_simulator(cfg.eventq)
        self.trace = Trace(record_samples=record_samples,
                           now_fn=lambda: self.sim.now)
        #: timeline tracer (None = tracing off, the near-zero-cost
        #: default); falls back to the ambient tracer installed by the
        #: CLI's --trace-out / profile paths.
        self.tracer = tracer if tracer is not None else current_tracer()
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
        #: requested shard count; None = untouched legacy serial path
        #: (only an explicit argument arms the engine: the app drivers
        #: pass the configured count).
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
        if shards is not None and self.fault_injector is None \
                and self.reliability is None:
            # Engine semantics: requested explicitly and no fault/
            # reliability machinery (whose watchdog and injector read
            # cross-PE state synchronously) is present.  With faults the
            # run silently keeps the legacy serial engine, so faulted
            # runs stay byte-identical at any --shards count.
            self.fabric.enable_engine(self._engine_deliver)
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
        idx = array.normalize_index(index)
        args = wrap_args(args)
        nbytes = nbytes_override if nbytes_override is not None else payload_bytes(args)
        dst_rank = array.pe_of(idx)
        src = self.current_pe
        charm = self.machine.charm

        if src is not None:
            for a in args:
                if isinstance(a, Payload) and a.pack and a.nbytes:
                    src.charge(charm.copy_base + a.nbytes * charm.copy_per_byte)
                    self.trace.count("charm.pack_copies")
            src.charge(charm.send_overhead)
            args = tuple(a.marshalled() if isinstance(a, Payload) else a for a in args)
            start = src.cursor
            src_rank: Optional[int] = src.rank
        else:
            start = self.sim.now
            src_rank = None

        msg = Message(array.id, idx, method, args, nbytes, src_rank, start, internal)
        self.trace.count("charm.msgs_sent")
        self.trace.count("charm.msg_bytes", nbytes)
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
            if self.fabric._engine:
                # Describe the in-flight message so the engine can ship
                # it across shards (the callback closure cannot travel).
                self.fabric._engine_desc = ("msg", msg)
            self.fabric.charm_transport(
                src_rank, dst_rank, nbytes, start, lambda: dst_pe.enqueue(msg)
            )

    def bcast(self, array, method: str, args: tuple = ()) -> None:
        """Invoke ``method`` on every member of an array *or section*
        via its home-PE tree."""
        args = wrap_args(args)
        # Marshal once; down-tree stages must not re-charge packing.
        if self.current_pe is not None:
            charm = self.machine.charm
            for a in args:
                if isinstance(a, Payload) and a.pack and a.nbytes:
                    self.current_pe.charge(
                        charm.copy_base + a.nbytes * charm.copy_per_byte
                    )
                    self.trace.count("charm.pack_copies")
        args = tuple(a.marshalled() if isinstance(a, Payload) else a for a in args)
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

    def _engine_deliver(self, dst_rank: int, desc: tuple) -> None:
        """Engine rx completion: hand a described arrival to dst.

        ``desc`` kinds: ``("msg", Message)`` for a local (same-process)
        charm message, ``("lput", handle)`` for a local CkDirect put,
        and encoded cross-shard forms handled by repro.sim.parallel.
        """
        kind = desc[0]
        if kind == "msg":
            self.pes[dst_rank].enqueue(desc[1])
        elif kind == "lput":
            from ..ckdirect import api as _ckd
            _ckd._complete(desc[1])
        else:
            from ..sim.parallel import deliver_remote
            deliver_remote(self, dst_rank, desc)

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
        self._enter_pe(pe)
        try:
            entry(*unwrap_args(msg.args))
        finally:
            self._exit_pe()

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

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation; returns the final simulated time.

        With ``shards`` set (and no fault machinery forcing the legacy
        engine) a full run is dispatched to the sharded parallel engine;
        bounded runs (``until``/``max_events``) stay in-process.
        """
        if self.fabric._engine and until is None and max_events is None:
            from ..sim.parallel import run_sharded
            return run_sharded(self)
        if self._pending_host_sends or self._defer_host_sends:
            self._flush_host_sends()
        self.sim.run(until=until, max_events=max_events)
        return self.sim.now

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
