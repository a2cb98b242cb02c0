"""Layer entry points of the ``repro`` package and the per-layer metrics.

:func:`install` wraps each entry point in a span (see :mod:`spans`),
from outside the package: class attributes are replaced in place and
module-level functions are replaced in every ``repro`` module that
imported them by name.  Nothing here runs in the untraced run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from typing import Dict, List

from spans import SpanRecorder, Spans, main_process, merge_totals, percentile

#: (module, attribute path, span name).  The span name's prefix is the
#: layer; a layer's self time is the sum over its span names.
HOOKS = [
    # sim: event dispatch (callbacks that are not themselves hooked
    # stay in this self time).
    ("repro.sim.engine", "Simulator.run", "sim.dispatch"),
    ("repro.sim.engine", "Simulator.run_before", "sim.dispatch"),
    ("repro.sim.eventq", "CalendarSimulator.run", "sim.dispatch"),
    ("repro.sim.eventq", "CalendarSimulator.run_before", "sim.dispatch"),
    # charm: construction, messaging, collectives, scheduler.
    ("repro.charm.runtime", "Runtime.__init__", "charm.build"),
    ("repro.charm.runtime", "Runtime.create_array", "charm.build"),
    ("repro.charm.runtime", "Runtime.send", "charm.send"),
    ("repro.charm.runtime", "Runtime.bcast", "charm.bcast"),
    ("repro.charm.runtime", "_PEAgent._bcast_stage", "charm.collective"),
    ("repro.charm.reduction", "ReductionManager.contribute", "charm.collective"),
    ("repro.charm.reduction", "ReductionManager.receive_partial", "charm.collective"),
    ("repro.charm.pe", "PE._iterate", "charm.sched"),
    # ckdirect: issue and completion (user callbacks are apps spans).
    ("repro.ckdirect.api", "put", "ckdirect.put"),
    ("repro.ckdirect.api", "_complete", "ckdirect.complete"),
    ("repro.ckdirect.handle", "CkDirectHandle.deliver", "ckdirect.complete"),
    ("repro.ckdirect.handle", "CkDirectHandle.fire", "ckdirect.complete"),
    # network: fabric transfers and the engine-mode admission wake.
    ("repro.network.base", "Fabric.transfer", "network.transfer"),
    ("repro.network.base", "Fabric._admit_arrivals", "network.transfer"),
    ("repro.network.infiniband", "InfinibandFabric.charm_transport", "network.transfer"),
    ("repro.network.infiniband", "InfinibandFabric.direct_put", "network.transfer"),
    ("repro.network.bluegene", "BGPFabric.transfer", "network.transfer"),
    ("repro.network.bluegene", "BGPFabric.dcmf_send", "network.transfer"),
    ("repro.network.bluegene", "BGPFabric.charm_transport", "network.transfer"),
    ("repro.network.bluegene", "BGPFabric.direct_put", "network.transfer"),
    # apps: entry methods (host and CkDirect callbacks are wrapped at
    # registration, see install()).
    ("repro.charm.runtime", "Runtime._deliver", "apps.entry"),
    # parallel: the shard wire codec.
    ("repro.sim.parallel", "encode_record", "parallel.encode"),
    ("repro.sim.parallel", "deliver_remote", "parallel.decode"),
    ("repro.network.base", "Fabric.admit_remote", "parallel.decode"),
    # transport: channel send on both ends.
    ("repro.sim.shm", "PipeChannel.send", "transport.send"),
    ("repro.sim.shm", "ShmChannel.send", "transport.send"),
    # resilience: the supervised coordinator's barrier.
    ("repro.resilience.supervisor", "ShardSupervisor.recv_state", "resilience.wait"),
    ("repro.sim.parallel", "_route_window", "resilience.route"),
    # sweep / bench.
    ("repro.sweep.runner", "SweepRunner.run", "sweep.run"),
    ("repro.bench.report", "render_table", "bench.report"),
    ("repro.bench.report", "render_series", "bench.report"),
]


def _replace_function(orig, wrapped) -> None:
    """Rebind every ``repro`` module attribute that is ``orig``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)


#: The workloads' entry modules.  Importing them before wrapping means
#: every by-name import of a hooked function (``ckdirect.put``, the
#: harness's report renderers) already exists to be rebound.
ENTRY_MODULES = ("repro.apps.stencil.driver", "repro.bench.harness")


def install(rec: SpanRecorder, span_dir: str) -> None:
    """Wrap every hooked entry point in a span recorded by ``rec``.

    Shard workers inherit the wrappers through fork; each drops its
    inherited buffer on entry and flushes its own spans to
    ``span_dir`` just before its ``os._exit``.
    """
    for mod in ENTRY_MODULES:
        importlib.import_module(mod)
    for modname, path, span in HOOKS:
        mod = importlib.import_module(modname)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(cls.__dict__[meth], span))
        else:
            orig = getattr(mod, path)
            _replace_function(orig, rec.wrap(orig, span))

    from repro.charm.callback import CkCallback
    from repro.charm.runtime import Runtime
    from repro.ckdirect.handle import CkDirectHandle
    import repro.sim.parallel as parallel

    # Host callbacks fire as bare simulator events: wrap each one as
    # an apps span when it is scheduled.
    host_call = Runtime.host_call

    @functools.wraps(host_call)
    def traced_host_call(self, fn, *args):
        return host_call(self, rec.wrap(fn, "apps.entry"), *args)

    Runtime.host_call = traced_host_call

    # Plain-function CkDirect completion callbacks are user code.
    handle_init = CkDirectHandle.__init__

    @functools.wraps(handle_init)
    def traced_handle_init(self, rt, recv_pe, buffer, oob, callback, *rest, **kw):
        if callable(callback) and not isinstance(callback, CkCallback):
            callback = rec.wrap(callback, "apps.entry")
        handle_init(self, rt, recv_pe, buffer, oob, callback, *rest, **kw)

    CkDirectHandle.__init__ = traced_handle_init

    # Each Runtime is one run: spans carry the ordinal of the newest.
    runtime_init = Runtime.__init__

    @functools.wraps(runtime_init)
    def counted_init(self, *args, **kwargs):
        rec.run[0] += 1
        runtime_init(self, *args, **kwargs)

    Runtime.__init__ = counted_init

    # Shard workers: fresh buffer on entry, flush before os._exit.
    worker = parallel._shard_worker

    @functools.wraps(worker)
    def traced_worker(rt, shard_id, *args, **kwargs):
        rec.reset(proc=1 + shard_id)
        real_exit = os._exit

        def flush_then_exit(code):
            try:
                rec.flush(span_dir)
            finally:
                real_exit(code)

        os._exit = flush_then_exit  # this forked child only
        return worker(rt, shard_id, *args, **kwargs)

    parallel._shard_worker = traced_worker


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


#: Span names whose self time feeds a reported metric.  The other two
#: hooks, ``resilience.route`` and ``sweep.run``, only give structure
#: (barrier timing, parents), so their self time — the coordinator's
#: routing, a sweep point's driver code — counts as unattributed.
REPORTED = frozenset({
    "sim.dispatch", "charm.build", "charm.send", "charm.bcast",
    "charm.collective", "charm.sched", "ckdirect.put", "ckdirect.complete",
    "network.transfer", "apps.entry", "parallel.encode", "parallel.decode",
    "transport.send", "resilience.wait", "bench.report",
})


def _self(totals: Dict, *names: str) -> float:
    return sum(totals.get(n, (0, 0.0))[1] for n in names)


def _calls(totals: Dict, *names: str) -> int:
    return sum(totals.get(n, (0, 0))[0] for n in names)


def layer_metrics(procs: List[Spans], counts: Dict, wall_s: float,
                  phase_ns: tuple) -> Dict[str, float]:
    """Per-layer metrics of one traced sample.

    ``counts`` holds the program's own counters summed over the
    sample's runtimes (see ``sample.RunCounts``); ``phase_ns`` is the
    timed phase on the ``perf_counter_ns`` clock of the benchmark's
    process.  Self times are summed over every process (shard workers
    included).  ``trace.unattributed_s`` is ``wall_s`` minus the self
    time, in the benchmark's own process and the timed phase, of the
    spans in :data:`REPORTED`: time outside every span plus the self
    time of the structural spans.  Worker processes are left out of
    it because their spans run beside the benchmark process's.
    """
    t = merge_totals(procs)
    c = counts
    occupancy = c["stat_totals"].get("pe.pollq_occupancy", 0.0)
    cpu = c["shard_cpu_times"]
    main = main_process(procs)
    rounds_at = main.starts_of("resilience.route") if main is not None else []
    round_ms = [(b - a) * 1e-6 for a, b in zip(rounds_at, rounds_at[1:])]
    attributed = (main.self_seconds(*phase_ns, REPORTED)
                  if main is not None else 0.0)
    counter = c["counters"]
    return {
        "sim.events": c["events"],
        "sim.dispatch_self_s": _self(t, "sim.dispatch"),
        "charm.build_s": _self(t, "charm.build"),
        "charm.send_calls": _calls(t, "charm.send"),
        "charm.send_self_s": _self(t, "charm.send", "charm.bcast"),
        "charm.collective_self_s": _self(t, "charm.collective"),
        "charm.sched_self_s": _self(t, "charm.sched"),
        "charm.msgs_executed": counter.get("pe.messages_executed", 0),
        "charm.poll_hit_ratio": (counter.get("pe.poll_detections", 0) / occupancy
                                 if occupancy else 0.0),
        "ckdirect.puts": counter.get("ckdirect.puts", 0),
        "ckdirect.put_self_s": _self(t, "ckdirect.put"),
        "ckdirect.complete_self_s": _self(t, "ckdirect.complete"),
        "ckdirect.direct_completions": counter.get("pe.direct_completions", 0),
        "network.transfers": (counter.get("net.transfers", 0)
                              + counter.get("net.shm_transfers", 0)),
        "network.bytes": counter.get("net.bytes", 0),
        "network.transfer_self_s": _self(t, "network.transfer"),
        "apps.entry_self_s": _self(t, "apps.entry"),
        "parallel.rounds": c["parallel_rounds"],
        "parallel.records": _calls(t, "parallel.encode"),
        "parallel.codec_self_s": _self(t, "parallel.encode", "parallel.decode"),
        "parallel.shard_cpu_max_s": max(cpu) if cpu else 0.0,
        "parallel.shard_imbalance": (max(cpu) / (sum(cpu) / len(cpu))
                                     if cpu and sum(cpu) > 0 else 0.0),
        "transport.frames": c["transport"].get("frames", 0),
        "transport.bytes": c["transport"].get("bytes", 0),
        "transport.spills": c["transport"].get("spills", 0),
        "transport.send_self_s": _self(t, "transport.send"),
        "resilience.barrier_wait_s": _self(t, "resilience.wait"),
        "resilience.round_ms_p50": percentile(round_ms, 50),
        "resilience.round_ms_p99": percentile(round_ms, 99),
        "resilience.restarts": c["restarts"],
        "sweep.points": c["sweep_points"],
        "sweep.failed": c["sweep_failed"],
        "bench.report_s": _self(t, "bench.report"),
        "trace.unattributed_s": wall_s - attributed,
    }
