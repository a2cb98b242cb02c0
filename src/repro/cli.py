"""Command-line interface: ``python -m repro <artifact> [options]``.

Regenerates individual tables/figures/ablations of the paper from the
terminal, without writing a driver script::

    python -m repro list
    python -m repro table1
    python -m repro fig2a --pes 32 64 128 256
    python -m repro fig3 --machine Surveyor --full-scale
    python -m repro pingpong --machine Abe --stack ckdirect --size 30000
    python -m repro ablations
    python -m repro profile --app openatom --machine Abe
    python -m repro fig4 --trace-out fig4.trace.json

``--trace-out PATH`` works on every artifact: the run is traced with
the Projections event log and written as Chrome trace-event JSON
(open in Perfetto / chrome://tracing; one process per simulated
runtime, one thread per PE).

Run-configuration flags (``--jobs``, ``--shards``, ``--eventq``,
``--transport``, ``--full-scale``) beat their ``REPRO_*`` environment
variables, which beat the defaults (see :mod:`repro.config`).

``repro serve`` starts the async simulation job server (persistent
content-addressed result cache + bounded SweepRunner pool) and
``repro submit`` sends one point to it; see ``repro serve --help``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import (
    run_backward_path_ablation,
    run_fig2a,
    run_fig2b,
    run_fig3,
    run_fig4,
    run_fig5,
    run_mpi_sync_ablation,
    run_polling_ablation,
    run_protocol_ablation,
    run_table1,
    run_table2,
    run_vr_ablation,
)
from .config import (
    EVENTQ_CHOICES,
    TRANSPORT_CHOICES,
    ConfigError,
    RunConfig,
    count_arg,
    install,
)
from .network.params import MACHINES
from .projections.eventlog import EventLog, install_tracer, uninstall_tracer
from .projections.export import write_chrome_trace
from .sim.shm import TransportError

ARTIFACTS = {
    "table1": "Table 1 — pingpong RTT, Infiniband (five stacks)",
    "table2": "Table 2 — pingpong RTT, Blue Gene/P (four stacks)",
    "fig2a": "Figure 2(a) — stencil improvement, Infiniband",
    "fig2b": "Figure 2(b) — stencil improvement, Blue Gene/P",
    "fig3": "Figure 3 — matmul scaling (pick --machine)",
    "fig4": "Figure 4 — OpenAtom on Abe (full + PC-only)",
    "fig5": "Figure 5 — OpenAtom on Blue Gene/P (full + PC-only)",
    "ablations": "A1 polling, A2 protocols, A3 MPI sync, A4 virtualization, A5 backward path",
    "chaos": "fault-injection oracle — apps x profiles, bit-identical results",
    "pingpong": "single pingpong measurement (pick stack/size/machine)",
    "profile": "overhead profile of one app (pick --app/--stack/--machine)",
    "list": "list the available artifacts",
}

#: Service commands with their own parsers (dispatched before the
#: artifact parser; shown by `repro list` alongside the artifacts).
COMMANDS = {
    "serve": "run the async job server (content-addressed result cache)",
    "submit": "submit one point to a running `repro serve` and fetch it",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of the CkDirect paper (ICPP 2009) "
                    "on simulated Infiniband / Blue Gene/P machines.",
    )
    p.add_argument("artifact", choices=sorted(ARTIFACTS), help="what to run")
    p.add_argument("--machine", default="Surveyor", choices=sorted(MACHINES),
                   help="machine preset for fig3 / pingpong")
    p.add_argument("--pes", type=count_arg, nargs="+", default=None,
                   help="PE counts for the figure sweeps")
    p.add_argument("--size", type=count_arg, default=30_000,
                   help="message size in bytes for `pingpong`")
    p.add_argument("--stack", default="ckdirect",
                   choices=["charm", "ckdirect", "mpi", "mpi-put"],
                   help="communication stack for `pingpong`")
    p.add_argument("--iterations", type=count_arg, default=None,
                   help="averaging iterations (default: 100 for "
                        "pingpong/tables, per-app for `profile`)")
    p.add_argument("--app", default="pingpong",
                   choices=["pingpong", "stencil", "openatom"],
                   help="application for `profile`")
    p.add_argument("--faults", default=None, metavar="PROFILES",
                   help="comma-separated fault profiles for `chaos` "
                        "(default: all built-in fabric profiles)")
    p.add_argument("--proc", default=None, metavar="PROFILES",
                   help="comma-separated process-scope chaos profiles "
                        "for `chaos` (kill-shard, hang-shard, "
                        "slow-worker, corrupt-object, or `all`): real "
                        "faults against shard workers / the serve "
                        "store, recovered by supervision + the "
                        "self-healing store")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the run's event timeline as Chrome "
                        "trace-event JSON (works with every artifact)")
    p.add_argument("--full-scale", action="store_true",
                   help="run the paper's full PE ranges (slow; default: "
                        "$REPRO_FULL_SCALE)")
    p.add_argument("--jobs", type=count_arg, default=None, metavar="N",
                   help="run sweep points over N worker processes "
                        "(default: $REPRO_JOBS, else serial; output is "
                        "identical at any N)")
    p.add_argument("--shards", type=count_arg, default=None, metavar="N",
                   help="partition each single run over N shard "
                        "processes with the conservative-lookahead "
                        "engine (default: $REPRO_SHARDS, else the "
                        "legacy serial engine; output is identical "
                        "at any explicit N, but on Infiniband the "
                        "serial default can differ from it)")
    p.add_argument("--eventq", default=None, metavar="IMPL",
                   choices=list(EVENTQ_CHOICES),
                   help="event-queue implementation: auto (default, "
                        "compiled core when built, else by workload), "
                        "heap (reference), calendar (pure Python), or "
                        "compiled (default: $REPRO_EVENTQ; output is "
                        "identical for every choice)")
    p.add_argument("--transport", default=None, metavar="NAME",
                   choices=list(TRANSPORT_CHOICES),
                   help="shard IPC transport: pipe (Connection "
                        "reference path, the default) or shm (one-"
                        "sided shared-memory rings with sentinel "
                        "completion; default: $REPRO_TRANSPORT; "
                        "output is identical for either transport)")
    return p


def _run_pingpong(args) -> str:
    from .apps.pingpong import (
        charm_pingpong,
        ckdirect_pingpong,
        mpi_pingpong,
        mpi_put_pingpong,
    )

    machine = MACHINES[args.machine]
    fn = {
        "charm": charm_pingpong,
        "ckdirect": ckdirect_pingpong,
        "mpi": mpi_pingpong,
        "mpi-put": mpi_put_pingpong,
    }[args.stack]
    r = fn(machine, args.size, args.iterations or 100)
    return (
        f"{r.stack} pingpong on {r.machine}: {r.nbytes}B -> "
        f"{r.rtt_us:.3f} us round trip ({r.iterations} iterations)"
    )


def _write_trace(log, path: str) -> int:
    """Write the trace file; returns the event count, or -1 on I/O error."""
    try:
        n = write_chrome_trace(log, path)
    except OSError as exc:
        print(f"error: cannot write trace to {path}: {exc}", file=sys.stderr)
        return -1
    print(f"wrote {n} trace events to {path}")
    return n


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in COMMANDS:
        # Service commands own their flag namespaces; hand off whole.
        from .serve.cli import serve_main, submit_main

        return {"serve": serve_main, "submit": submit_main}[argv[0]](argv[1:])
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig.from_env(
            jobs=args.jobs, shards=args.shards, eventq=args.eventq,
            transport=args.transport, full_scale=args.full_scale or None,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with install(cfg):
        return _run(args, cfg)


def _run(args, cfg: RunConfig) -> int:
    """Run one artifact under the installed ``cfg``."""
    if args.artifact == "list":
        entries = {**ARTIFACTS, **COMMANDS}
        width = max(len(k) for k in entries)
        for k in sorted(entries):
            print(f"{k:<{width}}  {entries[k]}")
        return 0

    if args.artifact == "profile":
        # run_profile manages its own tracing context; --trace-out just
        # persists the same log it builds the report from.
        from .projections.profile import ProfileError, run_profile

        try:
            result = run_profile(
                app=args.app,
                machine=MACHINES[args.machine],
                stack=args.stack,
                size=args.size,
                iterations=args.iterations,
                n_pes=args.pes[0] if args.pes else None,
            )
        except ProfileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result["report"])
        if args.trace_out:
            n = _write_trace(result["log"], args.trace_out)
            if n < 0:
                return 2
        return 0

    exit_code = 0
    log = None
    if args.trace_out:
        log = EventLog()
        install_tracer(log)
    try:
        from .sim.parallel import ParallelEngineError
        from .sweep.spec import SweepError

        iterations = args.iterations or 100
        if args.artifact == "pingpong":
            print(_run_pingpong(args))
        elif args.artifact == "table1":
            print(run_table1(iterations=iterations)["report"])
        elif args.artifact == "table2":
            print(run_table2(iterations=iterations)["report"])
        elif args.artifact == "fig2a":
            print(run_fig2a(pes=args.pes)["report"])
        elif args.artifact == "fig2b":
            print(run_fig2b(pes=args.pes)["report"])
        elif args.artifact == "fig3":
            print(run_fig3(MACHINES[args.machine], pes=args.pes)["report"])
        elif args.artifact == "fig4":
            print(run_fig4(pes=args.pes)["report"])
        elif args.artifact == "fig5":
            print(run_fig5(pes=args.pes)["report"])
        elif args.artifact == "chaos":
            from .bench.chaos import run_chaos, run_proc_chaos
            from .faults.plan import (
                FaultConfigError,
                parse_proc_profiles,
                parse_profiles,
            )

            # Fabric matrix runs by default, or when --faults is given
            # explicitly; --proc alone runs only the process matrix.
            try:
                fabric_profiles = (
                    parse_profiles(args.faults)
                    if args.faults is not None
                    else (None if args.proc is None else ())
                )
                proc_profiles = (
                    parse_proc_profiles(args.proc)
                    if args.proc is not None else ()
                )
            except FaultConfigError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            first = True
            if fabric_profiles is None or fabric_profiles:
                out = run_chaos(profiles=fabric_profiles)
                print(out["report"])
                if not out["ok"]:
                    exit_code = 1
                first = False
            if proc_profiles:
                if not first:
                    print()
                out = run_proc_chaos(
                    profiles=proc_profiles,
                    shards=cfg.shards or 2,
                )
                print(out["report"])
                if not out["ok"]:
                    exit_code = 1
        elif args.artifact == "ablations":
            for runner in (run_polling_ablation, run_protocol_ablation,
                           run_mpi_sync_ablation, run_vr_ablation,
                           run_backward_path_ablation):
                print(runner()["report"])
                print()
    except (SweepError, ParallelEngineError, TransportError) as exc:
        # A failed point or shard run: report it without the CLI's
        # own traceback on top.
        print(f"error: {exc}", file=sys.stderr)
        exit_code = 2
    finally:
        if log is not None:
            uninstall_tracer()
    if log is not None and _write_trace(log, args.trace_out) < 0:
        return 2
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
