"""End-to-end over real sockets: the acceptance criteria of the PR.

Submitting the same spec twice returns byte-identical payloads with
the second served from cache (hit counter up, no recompute); a burst
against a full queue gets 429 + Retry-After while every accepted job
completes; shutdown drains cleanly.
"""

import json
import time

import pytest

from repro.charm.runtime import Runtime
from repro.config import current, install
from repro.network.params import MACHINES
from repro.serve import (
    Backpressure,
    ServeApp,
    ServeClient,
    ServeClientError,
    ServerThread,
)
from repro.serve.metrics import ServeMetrics
from repro.sim.eventq import make_simulator
from repro.sweep import register_point


@register_point("h-echo")
def _echo(spec):
    return {"x": dict(spec.params)["x"], "events": 5}


@register_point("h-sleep")
def _sleep(spec):
    time.sleep(dict(spec.params).get("delay", 0.05))
    return {"x": dict(spec.params)["x"], "events": 1}


def wire_spec(kind, x, **kw):
    return {"kind": kind, "machine": "Abe", "mode": "m",
            "n_pes": 0, "params": {"x": x, **kw}}


@pytest.fixture()
def server(tmp_path):
    app = ServeApp(tmp_path / "store", workers=2, max_queue=16)
    srv = ServerThread(app).start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    return ServeClient(server.host, server.port)


class TestEndToEnd:
    def test_miss_then_hit_byte_identical(self, client):
        spec = wire_spec("h-echo", 1)
        j1 = client.submit(spec)
        assert j1["status"] in ("queued", "running") and not j1["cached"]
        assert client.wait(j1["job"])["status"] == "done"
        p1 = client.result(j1["job"])

        j2 = client.submit(spec)
        assert j2["cached"] and j2["status"] == "done"
        p2 = client.result(j2["job"])
        assert p1 == p2                                  # byte-identical

        m = client.metrics()
        assert m["cache"]["hits"] == 1
        assert m["cache"]["misses"] == 1
        assert m["jobs"]["completed"] == 1               # no recompute
        assert "hit" in m["latency"]["h-echo"]
        assert "miss" in m["latency"]["h-echo"]

    def test_result_payload_parses(self, client):
        j = client.submit(wire_spec("h-echo", 2))
        client.wait(j["job"])
        doc = json.loads(client.result(j["job"]))
        [res] = doc["results"]
        assert res["ok"] and res["values"] == {"x": 2} and res["events"] == 5
        assert res["spec"]["kind"] == "h-echo"

    def test_multi_spec_job(self, client):
        j = client.submit([wire_spec("h-echo", i) for i in range(3)])
        final = client.wait(j["job"])
        assert final["points"] == {"done": 3, "total": 3}
        doc = json.loads(client.result(j["job"]))
        assert [r["values"]["x"] for r in doc["results"]] == [0, 1, 2]

    def test_stream_reaches_terminal(self, client):
        j = client.submit([wire_spec("h-sleep", i, delay=0.05) for i in range(3)])
        lines = list(client.stream(j["job"]))
        assert lines[-1]["status"] == "done"
        assert lines[-1]["points"]["done"] == 3

    def test_status_unknown_job_404(self, client):
        with pytest.raises(ServeClientError) as exc:
            client.status("j999999")
        assert exc.value.status == 404

    def test_result_before_done_is_202(self, server, client):
        j = client.submit(wire_spec("h-sleep", 77, delay=0.4))
        with pytest.raises(ServeClientError) as exc:
            client.result(j["job"])
        assert exc.value.status == 202
        client.wait(j["job"])
        assert client.result(j["job"])


class TestValidation:
    def test_unknown_kind_400(self, client):
        with pytest.raises(ServeClientError) as exc:
            client.submit({"kind": "nope", "machine": "Abe",
                           "mode": "", "n_pes": 0, "params": {}})
        assert exc.value.status == 400
        assert "unknown kind" in exc.value.body["error"]

    def test_unknown_machine_400(self, client):
        with pytest.raises(ServeClientError) as exc:
            client.submit({"kind": "h-echo", "machine": "NoSuchMachine",
                           "mode": "", "n_pes": 0, "params": {}})
        assert exc.value.status == 400

    def test_malformed_spec_400(self, client):
        for bad in ({}, {"kind": ""}, {"kind": "h-echo"},
                    {"kind": "h-echo", "machine": "Abe", "bogus": 1}):
            with pytest.raises(ServeClientError) as exc:
                client.submit(bad)
            assert exc.value.status == 400
        assert client.metrics()["jobs"]["bad_requests"] == 4

    def test_garbage_body_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("POST", "/v1/jobs", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        conn.close()

    def test_unroutable_404(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("GET", "/nope")
        assert conn.getresponse().status == 404
        conn.close()


class TestBackpressureBurst:
    def test_burst_gets_429_and_accepted_jobs_complete(self, tmp_path):
        app = ServeApp(tmp_path / "store", workers=1, max_queue=4)
        srv = ServerThread(app).start()
        try:
            client = ServeClient(srv.host, srv.port)
            accepted, rejected = [], 0
            retry_after_seen = None
            for i in range(50):
                try:
                    accepted.append(
                        client.submit(wire_spec("h-sleep", i, delay=0.05))
                    )
                except Backpressure as exc:
                    rejected += 1
                    retry_after_seen = exc.retry_after
            assert rejected >= 1                       # queue really bounded
            assert accepted                            # but not starved
            assert len(accepted) + rejected == 50
            assert retry_after_seen >= 1.0             # Retry-After header parsed
            for j in accepted:
                assert client.wait(j["job"], deadline_s=60)["status"] == "done"
            m = client.metrics()
            assert m["jobs"]["rejected"] == rejected
            assert m["queue"]["depth"] == 0            # fully drained
        finally:
            srv.stop()

    def test_shutdown_drains_accepted_jobs(self, tmp_path):
        app = ServeApp(tmp_path / "store", workers=1, max_queue=8)
        srv = ServerThread(app).start()
        client = ServeClient(srv.host, srv.port)
        jobs = [client.submit(wire_spec("h-sleep", 100 + i, delay=0.05))
                for i in range(5)]
        srv.stop()                                     # graceful drain
        # Every accepted job's payload landed in the store.
        from repro.serve.store import ResultStore

        reopened = ResultStore(tmp_path / "store")
        assert len(reopened) == len(jobs)


def test_metrics_report_the_installed_config(tmp_path):
    cfg = current().replace(shards=2, jobs=3, shard_deadline=45.0)
    with install(cfg):
        app = ServeApp(tmp_path / "store", workers=1, max_queue=4)
    srv = ServerThread(app).start()
    try:
        engine = ServeClient(srv.host, srv.port).metrics()["engine"]
    finally:
        srv.stop()
    assert (engine["shards"], engine["jobs"], engine["shard_deadline"]) \
        == (2, 3, 45.0)
    assert (engine["eventq"], engine["transport"]) \
        == (make_simulator(cfg.eventq).eventq_name, cfg.transport)
    assert "mode" not in engine


def test_metrics_report_the_queue_jobs_run_on():
    """``engine.eventq`` names the implementation a job's runtime is
    built on (``auto`` resolved by the build), not the knob's spelling."""
    with install(current().replace(eventq="auto")):
        reported = ServeMetrics().to_dict()["engine"]["eventq"]
        built = Runtime(MACHINES["Abe"], 2).sim.eventq_name
    assert reported == built
    assert reported in ("heap", "calendar-c")
