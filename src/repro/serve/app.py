"""The asyncio HTTP server: routes, backpressure, graceful shutdown.

Pure-stdlib HTTP/1.1 on :func:`asyncio.start_server` — the container
has no aiohttp/fastapi, and the API surface is small enough that a
hand-rolled request reader (request line + headers + Content-Length
body, one request per connection) is simpler than a framework.

Routes::

    POST /v1/jobs             submit {"spec": {...}} or {"specs": [...]}
                              -> 200 done-from-cache, 202 queued/coalesced,
                                 400 malformed, 429 + Retry-After full,
                                 503 draining
    GET  /v1/jobs/<id>        job status JSON
    GET  /v1/jobs/<id>/result canonical result payload (202 while
                              running, 409 for failed jobs)
    GET  /v1/jobs/<id>/stream NDJSON progress stream until terminal
    GET  /metrics             counters/gauges/latency histograms
    GET  /healthz             liveness probe

Shutdown is graceful by default: the listener closes first (no new
connections), then the job queue drains every accepted job, then the
process exits — the acceptance bar for "jobs survive a deploy".
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, List, Optional, Tuple

from ..sweep.points import POINTS
from ..sweep.spec import RunSpec, SweepError
from ..network.params import MACHINES
from .jobs import JobManager, JobState, QueueFullError, ServerClosing
from .metrics import ServeMetrics
from .store import ResultStore

#: Hard cap on request head + body (the API has no large uploads).
MAX_HEAD_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(ValueError):
    """Client error carrying the 400 response message."""


def parse_specs(body: Dict) -> List[RunSpec]:
    """Validate a submit body into specs (raises :class:`BadRequest`)."""
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    if ("spec" in body) == ("specs" in body):
        raise BadRequest("provide exactly one of 'spec' or 'specs'")
    raw = [body["spec"]] if "spec" in body else body["specs"]
    if not isinstance(raw, list) or not raw:
        raise BadRequest("'specs' must be a non-empty array")
    specs = []
    for d in raw:
        try:
            spec = RunSpec.from_dict(d)
        except SweepError as exc:
            raise BadRequest(str(exc)) from None
        if spec.kind not in POINTS:
            raise BadRequest(
                f"unknown kind {spec.kind!r} (known: {sorted(POINTS)})"
            )
        if spec.machine not in MACHINES:
            raise BadRequest(
                f"unknown machine {spec.machine!r} (known: {sorted(MACHINES)})"
            )
        specs.append(spec)
    return specs


class ServeApp:
    """One server instance: store + metrics + job queue + HTTP routes."""

    def __init__(
        self,
        store_dir,
        *,
        cache_bytes: Optional[int] = None,
        workers: int = 2,
        max_queue: int = 32,
    ) -> None:
        self.metrics = ServeMetrics()
        self.store = ResultStore(store_dir, max_bytes=cache_bytes)
        self.manager = JobManager(
            self.store, self.metrics, workers=workers, max_queue=max_queue,
        )
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        await self.manager.start()
        self._server = await asyncio.start_server(self._handle, host, port)
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    async def shutdown(self, drain: bool = True) -> None:
        """Close the listener, then drain (or cancel) the job queue."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.shutdown(drain=drain)

    # -- HTTP plumbing --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except BadRequest as exc:
                await self._respond_json(writer, 400, {"error": str(exc)})
                return
            except (asyncio.IncompleteReadError, ConnectionError, asyncio.LimitOverrunError):
                return
            await self._route(writer, method, path, body)
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:  # pragma: no cover - last-resort 500
            try:
                await self._respond_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader) -> Tuple[str, str, Optional[Dict]]:
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > MAX_HEAD_BYTES:
            raise BadRequest("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise BadRequest(f"malformed request line: {lines[0]!r}") from None
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                k, v = line.split(":", 1)
                headers[k.strip().lower()] = v.strip()
        body = None
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise BadRequest("malformed Content-Length") from None
            if n > MAX_BODY_BYTES:
                raise BadRequest("request body too large")
            raw = await reader.readexactly(n) if n else b""
            if raw:
                try:
                    body = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise BadRequest(f"invalid JSON body: {exc}") from None
        return method.upper(), target.split("?", 1)[0], body

    async def _respond(
        self, writer, status: int, payload: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
        head.append(f"Content-Type: {content_type}")
        head.append(f"Content-Length: {len(payload)}")
        head.append("Connection: close")
        for k, v in (extra_headers or {}).items():
            head.append(f"{k}: {v}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    async def _respond_json(self, writer, status: int, obj, **kw) -> None:
        await self._respond(
            writer, status, (json.dumps(obj) + "\n").encode("utf-8"), **kw
        )

    # -- routes ---------------------------------------------------------

    async def _route(self, writer, method: str, path: str, body) -> None:
        if path == "/healthz":
            await self._respond_json(writer, 200, {"ok": True})
        elif path in ("/metrics", "/v1/metrics"):
            await self._respond_json(
                writer, 200,
                self.metrics.to_dict(store=self.store, queue=self.manager),
            )
        elif path == "/v1/jobs" and method == "POST":
            await self._submit(writer, body)
        elif path.startswith("/v1/jobs/"):
            await self._job_route(writer, method, path)
        else:
            await self._respond_json(
                writer, 404, {"error": f"no route for {method} {path}"}
            )

    async def _submit(self, writer, body) -> None:
        import time as _time

        t0 = _time.monotonic()
        try:
            specs = parse_specs(body)
        except BadRequest as exc:
            self.metrics.bad_requests += 1
            await self._respond_json(writer, 400, {"error": str(exc)})
            return
        try:
            job = self.manager.submit(specs)
        except ServerClosing as exc:
            await self._respond_json(writer, 503, {"error": str(exc)})
            return
        except QueueFullError as exc:
            await self._respond_json(
                writer, 429,
                {"error": str(exc), "retry_after_s": round(exc.retry_after, 1)},
                extra_headers={"Retry-After": str(int(exc.retry_after + 0.999))},
            )
            return
        if job.cached:
            self.metrics.observe_latency(job.kind, "hit", _time.monotonic() - t0)
        status = 200 if job.terminal else 202
        await self._respond_json(writer, status, self._job_json(job))

    def _job_json(self, job) -> Dict:
        d = job.to_dict()
        d["result"] = f"/v1/jobs/{job.id}/result"
        return d

    async def _job_route(self, writer, method: str, path: str) -> None:
        if method != "GET":
            await self._respond_json(writer, 405, {"error": "GET only"})
            return
        parts = path.split("/")  # ['', 'v1', 'jobs', '<id>', ...]
        job = self.manager.get(parts[3]) if len(parts) > 3 else None
        if job is None:
            await self._respond_json(writer, 404, {"error": "unknown job"})
            return
        tail = parts[4] if len(parts) > 4 else ""
        if tail == "":
            await self._respond_json(writer, 200, self._job_json(job))
        elif tail == "result":
            if job.state == JobState.FAILED:
                await self._respond_json(
                    writer, 409, {"error": job.error, "job": job.id}
                )
            elif job.payload is None:
                await self._respond_json(
                    writer, 202,
                    {"status": job.state.value, "job": job.id,
                     "points": {"done": job.done_points,
                                "total": job.total_points}},
                )
            else:
                await self._respond(writer, 200, job.payload)
        elif tail == "stream":
            await self._stream(writer, job)
        else:
            await self._respond_json(writer, 404, {"error": f"no route {path}"})

    async def _stream(self, writer, job) -> None:
        """NDJSON progress stream: one status line per change + final."""
        writer.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        version = -1
        while True:
            writer.write((json.dumps(job.to_dict()) + "\n").encode("utf-8"))
            await writer.drain()
            if job.terminal:
                return
            version = await job.wait_change(version if version >= 0 else job.version)


class ServerThread:
    """Run a :class:`ServeApp` on a dedicated thread + event loop.

    The blocking-world adapter used by tests, the bench suite, and any
    caller that is not itself async: ``start()`` returns once the port
    is bound, ``stop()`` performs the graceful drain.
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1", port: int = 0) -> None:
        self.app = app
        self._host_arg, self._port_arg = host, port
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True, name="repro-serve")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.host, self.port = await self.app.start(self._host_arg, self._port_arg)
        self._ready.set()
        await self._stop.wait()
        await self.app.shutdown(drain=True)

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Request graceful shutdown (drain) and join the thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already gone
        self._thread.join(timeout)


async def serve_forever(app: ServeApp, host: str, port: int) -> None:
    """CLI entry: run until SIGINT/SIGTERM, then drain and exit."""
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    bound_host, bound_port = await app.start(host, port)
    print(f"repro serve: listening on http://{bound_host}:{bound_port} "
          f"(store: {app.store.root}, workers: {app.manager.workers}, "
          f"queue: {app.manager.max_queue})", flush=True)
    await stop.wait()
    print("repro serve: draining...", flush=True)
    await app.shutdown(drain=True)
    print("repro serve: bye", flush=True)
