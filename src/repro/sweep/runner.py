"""The parallel sweep runner.

:class:`SweepRunner` executes a list of :class:`~repro.sweep.spec.RunSpec`
points either in-process (``jobs=1``, the *warm* path — ambient
tracing, debuggers, and profilers all see the runs directly) or fanned
out over a pool of worker processes (``jobs>1``).

Guarantees, in order of importance:

* **Determinism** — results come back ordered by the *input spec
  list*, never by completion order, and every point is a deterministic
  pure function of its spec; a sweep run with ``--jobs 4`` therefore
  renders byte-identical reports to a serial run (regression-tested).
* **Crash isolation** — each point runs in its own worker process; a
  worker that dies (segfault, ``os._exit``, OOM-kill) or exceeds the
  per-point timeout fails *that point only*, recorded as a failed
  :class:`RunResult`, and the sweep continues.
* **Tracing** — when a Projections tracer is ambient
  (``--trace-out``), parallel workers record into their own private
  :class:`EventLog` and ship the events back with the result; the
  parent merges them (run ids and event ids remapped) in spec order,
  so a traced parallel sweep produces one coherent timeline.

Pool size and per-point timeout come from the run configuration
(:mod:`repro.config`: ``jobs``, ``sweep_timeout``) unless given
explicitly.  Workers fork wherever ``fork`` exists, so they inherit
every registered point function.  Workers are daemonic and may not
fork, so a sharded point run in a worker is one in-process shard
(:func:`repro.sim.parallel.run_sharded`): ``jobs`` alone sets how many
processes a sweep runs.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Sequence

from ..config import RunConfig, current, install
from ..projections.eventlog import (
    EventLog,
    current_tracer,
    install_tracer,
    uninstall_tracer,
)
from ..projections.events import TraceEvent
from .points import point_function
from .spec import RunResult, RunSpec
from .stats import SweepRecord, record

#: Poll interval for the worker supervision loop (seconds).
_POLL_S = 0.05


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one point in the current process (shared serial/worker path)."""
    t0 = time.perf_counter()
    try:
        values = dict(point_function(spec.kind)(spec))
    except BaseException:
        return RunResult(
            spec, ok=False, error=traceback.format_exc(),
            wall_time=time.perf_counter() - t0,
        )
    events = int(values.pop("events", 0))
    return RunResult(
        spec, ok=True, values=values, events=events,
        wall_time=time.perf_counter() - t0,
    )


def _serialize_log(log: EventLog) -> tuple:
    """Flatten an EventLog into picklable payloads (owner refs dropped)."""
    events = [
        (e.eid, e.kind, e.run, e.pe, e.category, e.name, e.t0, e.t1,
         e.cause, e.args)
        for e in log.events
    ]
    runs = [(label, n_pes) for (label, _owner, n_pes) in log.runs]
    return events, runs


def _worker_main(spec: RunSpec, trace: bool, conn, cfg: RunConfig) -> None:
    """Worker entry: run the point under the sweep's run configuration,
    optionally tracing, and ship the result."""
    try:
        log = None
        if trace:
            log = EventLog()
            install_tracer(log)
        try:
            with install(cfg):
                res = execute_spec(spec)
        finally:
            if trace:
                uninstall_tracer()
        if log is not None:
            res.trace_events, res.trace_runs = _serialize_log(log)
        conn.send(res)
    except BaseException:  # pragma: no cover - last-resort reporting
        try:
            conn.send(RunResult(spec, ok=False, error=traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _merge_trace(log: EventLog, res: RunResult) -> None:
    """Fold one worker's trace payload into the parent's EventLog.

    Run ids and event ids are remapped into the parent's namespaces;
    relative event order (and therefore causal links) is preserved.
    """
    run_map = {
        i: log.new_run(label, owner=None, n_pes=n_pes)
        for i, (label, n_pes) in enumerate(res.trace_runs)
    }
    # Two passes: span-wrapping allocates ids before recording, so a
    # `cause` may reference an eid recorded later in the list.
    eid_map: Dict[int, int] = {}
    for rec in res.trace_events:
        eid_map[rec[0]] = log.next_id()
    for (eid, kind, run, pe, category, name, t0, t1, cause, args) in res.trace_events:
        log.events.append(
            TraceEvent(
                eid_map[eid], kind, run_map.get(run, run), pe, category,
                name, t0, t1,
                eid_map.get(cause) if cause is not None else None, args,
            )
        )


class SweepRunner:
    """Fan a list of sweep points over a worker pool; merge by spec."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        label: str = "sweep",
    ) -> None:
        self.config = current().replace(jobs=jobs, sweep_timeout=timeout)
        self.jobs = self.config.jobs
        self.timeout = self.config.sweep_timeout
        self.label = label

    def run(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[Callable[[RunResult], None]] = None,
    ) -> List[RunResult]:
        """Execute every spec; results ordered exactly like ``specs``.

        ``progress``, when given, is invoked once per point as it
        finishes — in *completion* order on the parallel path (the
        returned list stays in spec order regardless).  The serve
        layer uses this for per-job progress streaming; callbacks run
        on the supervising thread and must not raise.
        """
        specs = list(specs)
        t0 = time.perf_counter()
        if self.jobs <= 1 or len(specs) <= 1:
            results = []
            for s in specs:
                r = execute_spec(s)
                results.append(r)
                if progress is not None:
                    progress(r)
            jobs_used = 1
        else:
            results = self._run_parallel(specs, progress)
            jobs_used = self.jobs
        wall = time.perf_counter() - t0
        record(SweepRecord(
            label=self.label,
            jobs=jobs_used,
            points=len(results),
            failed=sum(1 for r in results if not r.ok),
            wall_s=wall,
            events=sum(r.events for r in results),
        ))
        return results

    # ------------------------------------------------------------------
    # Parallel path
    # ------------------------------------------------------------------

    def _run_parallel(
        self,
        specs: List[RunSpec],
        progress: Optional[Callable[[RunResult], None]] = None,
    ) -> List[RunResult]:
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None)
        tracer = current_tracer()
        trace = tracer is not None
        results: List[Optional[RunResult]] = [None] * len(specs)
        todo = deque(enumerate(specs))
        active: Dict[object, tuple] = {}  # conn -> (idx, proc, deadline)

        def _finish(idx: int, res: RunResult) -> None:
            results[idx] = res
            if progress is not None:
                progress(res)

        try:
            while todo or active:
                while todo and len(active) < self.jobs:
                    idx, spec = todo.popleft()
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(spec, trace, child_conn, self.config),
                        daemon=True,
                        name=f"sweep:{spec.label()}",
                    )
                    proc.start()
                    child_conn.close()
                    active[parent_conn] = (
                        idx, proc, time.monotonic() + self.timeout
                    )

                ready = mp_connection.wait(list(active), timeout=_POLL_S)
                for conn in ready:
                    idx, proc, _deadline = active.pop(conn)
                    try:
                        res = conn.recv()
                    except (EOFError, OSError):
                        # EOF means the child exited; reap it first or
                        # exitcode may still read None (unwaited zombie).
                        proc.join()
                        res = RunResult(
                            specs[idx], ok=False,
                            error=f"worker for {specs[idx].label()} died "
                                  f"without a result "
                                  f"(exitcode={proc.exitcode})",
                        )
                    conn.close()
                    proc.join()
                    _finish(idx, res)

                now = time.monotonic()
                for conn, (idx, proc, deadline) in list(active.items()):
                    if now >= deadline:
                        proc.terminate()
                        proc.join()
                        conn.close()
                        del active[conn]
                        _finish(idx, RunResult(
                            specs[idx], ok=False,
                            error=f"sweep point {specs[idx].label()} timed "
                                  f"out after {self.timeout:g}s",
                        ))
        finally:
            # Supervisor interrupted: reap whatever is still running.
            for conn, (idx, proc, _d) in active.items():
                proc.terminate()
                proc.join()
                conn.close()

        out: List[RunResult] = []
        for idx, res in enumerate(results):
            if res is None:  # pragma: no cover - supervisor interrupted
                res = RunResult(specs[idx], ok=False, error="sweep aborted")
            out.append(res)

        # Merge worker trace payloads in *spec order* so the parent's
        # timeline is independent of completion order.
        if trace:
            for res in out:
                if res.trace_events or res.trace_runs:
                    _merge_trace(tracer, res)
                    res.trace_events, res.trace_runs = [], []
        return out
