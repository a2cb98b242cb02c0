"""Blocking HTTP client for the serve API (``repro submit``).

Built on :mod:`http.client` so tests and the CLI need no extra
dependencies.  One :class:`ServeClient` per server; each call opens a
fresh connection (the server closes after every response).

Submission is retry-aware: a 429 honors the server's ``Retry-After``
(floored by jittered exponential backoff, capped) for up to
``retries`` attempts before :class:`Backpressure` escapes, and one
transient socket/protocol error is retried once — POSTing the same
specs twice is safe because jobs are digest-coalesced server-side.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Dict, List, Optional, Sequence, Union

from ..sweep.spec import RunSpec

#: Errors worth exactly one blind resend (server restarting, listen
#: queue hiccup, connection reset mid-response).
_TRANSIENT = (ConnectionError, http.client.HTTPException)


class ServeClientError(RuntimeError):
    """Server answered with an unexpected status; carries the details."""

    def __init__(self, status: int, body: Union[Dict, bytes, None]) -> None:
        super().__init__(f"server returned {status}: {body!r}")
        self.status = status
        self.body = body


class Backpressure(ServeClientError):
    """429 from the server; ``retry_after`` seconds suggested."""

    def __init__(self, body, retry_after: float) -> None:
        super().__init__(429, body)
        self.retry_after = retry_after


class ServeClient:
    """Thin wrapper over the serve HTTP API.

    ``retries`` bounds how many *extra* submit attempts follow a 429
    (total attempts = retries + 1); 0 keeps the old fail-fast
    behavior.  ``rng`` seeds the backoff jitter (tests).
    """

    #: sleep seam (monkeypatchable without freezing real time).
    _sleep = staticmethod(time.sleep)

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 retries: int = 0, backoff_base: float = 0.1,
                 backoff_cap: float = 30.0,
                 rng: Optional[random.Random] = None) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.rng = rng if rng is not None else random.Random()

    def _backoff(self, attempt: int, retry_after: float) -> float:
        """Seconds to sleep before retry ``attempt`` (1-based): the
        server's hint, floored by exponential backoff, capped, and
        jittered to ±50% so synchronized clients desynchronize."""
        base = max(retry_after, self.backoff_base * 2.0 ** (attempt - 1))
        return min(self.backoff_cap, base) * (0.5 + self.rng.random())

    # -- plumbing -------------------------------------------------------

    def _request(self, method: str, path: str, body: Optional[Dict] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            return resp.status, dict(resp.getheaders()), data
        finally:
            conn.close()

    @staticmethod
    def _json(data: bytes):
        try:
            return json.loads(data)
        except (ValueError, UnicodeDecodeError):
            return None

    # -- API ------------------------------------------------------------

    def submit(self, specs: Union[RunSpec, Dict, Sequence]) -> Dict:
        """Submit one spec or a list; returns the job-status JSON.

        Retries through up to ``self.retries`` 429 responses (sleeping
        per :meth:`_backoff`) and through one transient connection
        error, then raises :class:`Backpressure` on 429 and
        :class:`ServeClientError` on any other non-2xx answer.
        """
        if isinstance(specs, (RunSpec, dict)):
            specs = [specs]
        wire: List[Dict] = [
            s.to_dict() if isinstance(s, RunSpec) else s for s in specs
        ]
        attempt = 0
        transient_used = False
        while True:
            try:
                status, headers, data = self._request(
                    "POST", "/v1/jobs", {"specs": wire}
                )
            except _TRANSIENT:
                if transient_used:
                    raise
                transient_used = True
                self._sleep(self.backoff_base)
                continue
            body = self._json(data)
            if status == 429:
                retry = float(headers.get("Retry-After", 1))
                attempt += 1
                if attempt > self.retries:
                    raise Backpressure(body, retry)
                self._sleep(self._backoff(attempt, retry))
                continue
            if status not in (200, 202):
                raise ServeClientError(status, body if body is not None else data)
            return body

    def status(self, job_id: str) -> Dict:
        status, _h, data = self._request("GET", f"/v1/jobs/{job_id}")
        body = self._json(data)
        if status != 200:
            raise ServeClientError(status, body)
        return body

    def result(self, job_id: str) -> bytes:
        """The job's canonical payload bytes (exactly as cached)."""
        status, _h, data = self._request("GET", f"/v1/jobs/{job_id}/result")
        if status != 200:
            raise ServeClientError(status, self._json(data))
        return data

    def wait(self, job_id: str, deadline_s: float = 300.0, poll_s: float = 0.05) -> Dict:
        """Poll until the job is terminal; returns the final status JSON."""
        t_end = time.monotonic() + deadline_s
        while True:
            body = self.status(job_id)
            if body["status"] in ("done", "failed"):
                return body
            if time.monotonic() >= t_end:
                raise TimeoutError(
                    f"job {job_id} still {body['status']} after {deadline_s:g}s"
                )
            time.sleep(poll_s)

    def stream(self, job_id: str):
        """Yield NDJSON progress dicts until the job is terminal."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/stream")
            resp = conn.getresponse()
            if resp.status != 200:
                raise ServeClientError(resp.status, self._json(resp.read()))
            buf = b""
            while True:
                chunk = resp.read1(4096) if hasattr(resp, "read1") else resp.read(4096)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
        finally:
            conn.close()

    def metrics(self) -> Dict:
        status, _h, data = self._request("GET", "/metrics")
        body = self._json(data)
        if status != 200:
            raise ServeClientError(status, body)
        return body
