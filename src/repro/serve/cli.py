"""``repro serve`` and ``repro submit`` — the service's command line.

Kept out of :mod:`repro.cli` so the artifact CLI stays importable
without touching asyncio; :func:`repro.cli.main` dispatches here when
the first positional is ``serve`` or ``submit``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from ..config import ConfigError, RunConfig, install
from ..network.params import MACHINES
from ..sim.engine import SimulationError
from ..sim.eventq import simulator_class
from ..sweep.points import POINTS

DEFAULT_PORT = 8642
DEFAULT_STORE = ".repro-store"


def _serve_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the simulation job server: content-addressed "
                    "result cache + bounded SweepRunner worker pool.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT,
                   help=f"listen port (default {DEFAULT_PORT}; 0 = ephemeral)")
    p.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                   help=f"result-store directory (default {DEFAULT_STORE})")
    p.add_argument("--cache-mb", type=float, default=256.0, metavar="MB",
                   help="LRU size cap for the result store (default 256)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="concurrent jobs (default 2)")
    p.add_argument("--queue", type=int, default=32, metavar="N",
                   help="max queued jobs before 429 backpressure (default 32)")
    p.add_argument("--jobs-per-run", type=int, default=None, metavar="N",
                   help="SweepRunner --jobs per job (default: $REPRO_JOBS, "
                        "else 1)")
    p.add_argument("--point-timeout", type=float, default=None, metavar="S",
                   help="per-point timeout seconds "
                        "(default: $REPRO_SWEEP_TIMEOUT, else 600)")
    return p


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = _serve_parser().parse_args(argv)
    if args.port < 0:
        print(f"error: --port must be >= 0, got {args.port}", file=sys.stderr)
        return 2
    for name, val in (("--workers", args.workers), ("--queue", args.queue)):
        if val < 1:
            print(f"error: {name} must be at least 1, got {val}", file=sys.stderr)
            return 2
    if args.cache_mb <= 0:
        print(f"error: --cache-mb must be positive, got {args.cache_mb}",
              file=sys.stderr)
        return 2
    try:
        cfg = RunConfig.from_env(jobs=args.jobs_per_run,
                                 sweep_timeout=args.point_timeout)
        simulator_class(cfg.eventq)  # an unbuilt compiled core fails here
    except (ConfigError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from .app import ServeApp, serve_forever

    with install(cfg):
        app = ServeApp(
            args.store,
            cache_bytes=int(args.cache_mb * 1024 * 1024),
            workers=args.workers,
            max_queue=args.queue,
        )
        try:
            asyncio.run(serve_forever(app, args.host, args.port))
        except KeyboardInterrupt:  # pragma: no cover - signal path races
            pass
    return 0


def _submit_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit one sweep point to a running `repro serve` "
                    "and (optionally) wait for + print its result.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--kind", choices=sorted(POINTS),
                   help="sweep-point kind (alternative: --spec-json)")
    p.add_argument("--machine", default="Surveyor", choices=sorted(MACHINES))
    p.add_argument("--mode", default="", help="stack / app variant")
    p.add_argument("--pes", type=int, default=0, metavar="N", help="PE count")
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="point parameter (repeatable); values parsed as "
                        "JSON when possible, else kept as strings")
    p.add_argument("--spec-json", metavar="PATH",
                   help="read the spec (or a {'specs': [...]} job) from a "
                        "JSON file, '-' for stdin")
    p.add_argument("--no-wait", action="store_true",
                   help="just submit; print the job id and return")
    p.add_argument("--out", metavar="PATH",
                   help="write the result payload to PATH (default: stdout "
                        "summary only)")
    p.add_argument("--timeout", type=float, default=300.0, metavar="S",
                   help="max seconds to wait for the result (default 300)")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="extra submit attempts through 429 backpressure, "
                        "honoring Retry-After with jittered exponential "
                        "backoff (default 3; 0 = fail fast)")
    return p


def _parse_params(pairs: List[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param needs K=V, got {pair!r}")
        k, v = pair.split("=", 1)
        try:
            out[k] = json.loads(v)
        except ValueError:
            out[k] = v
    return out


def submit_main(argv: Optional[List[str]] = None) -> int:
    parser = _submit_parser()
    args = parser.parse_args(argv)

    if (args.kind is None) == (args.spec_json is None):
        parser.error("provide exactly one of --kind or --spec-json")

    if args.spec_json is not None:
        raw = sys.stdin.read() if args.spec_json == "-" else None
        if raw is None:
            try:
                with open(args.spec_json) as fh:
                    raw = fh.read()
            except OSError as exc:
                print(f"error: cannot read {args.spec_json}: {exc}", file=sys.stderr)
                return 2
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            print(f"error: invalid JSON in {args.spec_json}: {exc}", file=sys.stderr)
            return 2
        specs = doc["specs"] if isinstance(doc, dict) and "specs" in doc else [doc]
    else:
        try:
            params = _parse_params(args.param)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        specs = [{
            "kind": args.kind, "machine": args.machine,
            "mode": args.mode, "n_pes": args.pes, "params": params,
        }]

    from .client import Backpressure, ServeClient, ServeClientError

    if args.retries < 0:
        print(f"error: --retries must be >= 0, got {args.retries}",
              file=sys.stderr)
        return 2
    client = ServeClient(args.host, args.port, timeout=args.timeout,
                         retries=args.retries)
    try:
        job = client.submit(specs)
    except Backpressure as exc:
        print(f"rejected: queue full after {args.retries + 1} attempts, "
              f"retry after {exc.retry_after:g}s", file=sys.stderr)
        return 3
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot reach server at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2

    hit = "hit" if job.get("cached") else "miss"
    print(f"job {job['job']} digest={job['digest'][:16]}... "
          f"status={job['status']} cache={hit}")
    if args.no_wait:
        return 0

    try:
        final = client.wait(job["job"], deadline_s=args.timeout)
    except (ServeClientError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if final["status"] != "done":
        print(f"job {final['job']} failed: {final.get('error', '')}",
              file=sys.stderr)
        return 1
    payload = client.result(job["job"])
    points = final["points"]["total"]
    print(f"job {final['job']} done: {points} point(s), "
          f"{len(payload)} payload bytes")
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    return 0
