"""Tests for the traced-run span recorder and the benchmark's names.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import textwrap
from array import array

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, Spans  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _snapshot(names, rows, proc=0):
    """Spans from explicit ``(name, parent, start, end)`` rows."""
    ids = {n: i for i, n in enumerate(names)}
    return {
        "proc": proc, "names": list(names),
        "name_of": array("i", [ids[r[0]] for r in rows]).tobytes(),
        "parent": array("i", [r[1] for r in rows]).tobytes(),
        "run_of": array("i", [0] * len(rows)).tobytes(),
        "start": array("q", [r[2] for r in rows]).tobytes(),
        "end": array("q", [r[3] for r in rows]).tobytes(),
    }


def test_self_time_of_nested_spans():
    # Simulator.run > PE._iterate > entry method > Runtime.send
    names = ["sim", "sched", "apps", "send"]
    sp = Spans(_snapshot(names, [
        ("sim", -1, 0, 100),
        ("sched", 0, 10, 90),
        ("apps", 1, 20, 80),
        ("send", 2, 30, 40),
        ("send", 2, 50, 65),
    ]))
    t = sp.totals()
    assert t["sim"] == (1, pytest.approx(20e-9))
    assert t["sched"] == (1, pytest.approx(20e-9))
    assert t["apps"] == (1, pytest.approx(35e-9))
    assert t["send"] == (2, pytest.approx(25e-9))
    assert sum(v[1] for v in t.values()) == pytest.approx(100e-9)
    assert sp.self_seconds(0, 100) == pytest.approx(100e-9)
    assert sp.self_seconds(0, 100, ["send"]) == pytest.approx(25e-9)
    assert sp.self_seconds(20, 80) == pytest.approx(60e-9)  # apps + sends


def test_self_time_of_reentrant_spans():
    # send inside send (a broadcast stage sending to children): the
    # inner call is subtracted once from the outer, never twice.
    sp = Spans(_snapshot(["send"], [
        ("send", -1, 0, 50),
        ("send", 0, 5, 25),
        ("send", 1, 10, 20),
    ]))
    assert sp.totals()["send"] == (3, pytest.approx(50e-9))
    assert list(sp.self_time) == [30.0, 10.0, 10.0]


def test_live_wrappers_record_parents_and_tile_the_outer_span():
    rec = SpanRecorder()

    def send(n):
        if n:
            wsend(n - 1)

    wsend = rec.wrap(send, "charm.send")
    entry = rec.wrap(lambda: wsend(2), "apps.entry")
    iterate = rec.wrap(lambda: entry(), "charm.sched")
    run = rec.wrap(lambda: [iterate() for _ in range(3)], "sim.dispatch")
    run()
    sp = Spans(rec.snapshot())
    t = sp.totals()
    assert t["charm.send"][0] == 9 and t["apps.entry"][0] == 3
    assert t["charm.sched"][0] == 3 and t["sim.dispatch"][0] == 1
    assert list(sp.parent[:5]) == [-1, 0, 1, 2, 3]
    assert sum(v[1] for v in t.values()) == pytest.approx(
        sp.self_seconds(0, 2**62), rel=1e-9)
    assert all(s >= 0 for s in sp.self_time)


def test_exception_closes_the_span():
    rec = SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap(boom, "apps.entry")()
    assert rec.stack == [-1] and rec.end[0] >= rec.start[0] > 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_worker_drops_inherited_spans_and_merges(tmp_path):
    rec = SpanRecorder()
    work = rec.wrap(lambda: None, "parallel.encode")
    outer = rec.wrap(lambda f: f(), "sim.dispatch")

    def fork_worker():
        pid = os.fork()
        if pid == 0:  # the worker: fresh buffer, own spans, flush, exit
            rec.reset(proc=1)
            for _ in range(4):
                work()
            rec.flush(str(tmp_path))
            os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0

    work()
    outer(fork_worker)  # forks while a span is open
    rec.flush(str(tmp_path))
    procs = spans.load_dir(str(tmp_path))
    assert sorted(p.proc for p in procs) == [0, 1]
    child = next(p for p in procs if p.proc == 1)
    assert child.totals() == {"parallel.encode": (4, pytest.approx(
        child.totals()["parallel.encode"][1]))}
    assert list(child.parent) == [-1] * 4
    merged = spans.merge_totals(procs)
    assert merged["parallel.encode"][0] == 5
    assert merged["sim.dispatch"][0] == 1


def _no_counts():
    return {"events": 0, "counters": {}, "stat_totals": {},
            "shard_cpu_times": [], "parallel_rounds": 0, "transport": {},
            "restarts": 0, "sweep_points": 0, "sweep_failed": 0}


def test_unattributed_time_counts_structural_spans_and_gaps():
    # A sweep point (structural span) drives a simulation with an
    # entry method; a second dispatch runs after it; the rest of the
    # 200 ns phase is outside every span.
    sp = Spans(_snapshot(["sweep.run", "sim.dispatch", "apps.entry"], [
        ("sweep.run", -1, 0, 100),
        ("sim.dispatch", 0, 10, 70),
        ("apps.entry", 1, 20, 50),
        ("sim.dispatch", -1, 120, 150),
    ]))
    m = layers.layer_metrics([sp], _no_counts(), 200e-9, (0, 200))
    # reported self time: dispatch 30 + 30, apps 30 -> 90 of 200 ns;
    # sweep.run's own 40 ns and the 70 ns gap stay unattributed.
    assert m["trace.unattributed_s"] == pytest.approx(110e-9)
    assert m["sim.dispatch_self_s"] == pytest.approx(60e-9)


def test_every_hook_but_the_structural_ones_is_reported():
    hooked = {span for _, _, span in layers.HOOKS} | {"apps.entry", "bench.report"}
    assert layers.REPORTED <= hooked
    assert hooked - layers.REPORTED == {"resilience.route", "sweep.run"}


def test_names_are_well_formed_and_every_metric_is_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    wl = [w["name"] for w in bench["workloads"]]
    for name in e2e + layer + wl:
        assert NAME_RE.match(name), name
    assert len(set(e2e + layer + wl)) == len(e2e + layer + wl)
    for bad in ("", "-x", "a b", "x/y", "a" * 65):
        assert not NAME_RE.match(bad)
    assert e2e == list(run.SAMPLE_METRICS) + ["success_ratio"]
    assert sorted(wl) == sorted(workloads.WORKLOADS)
    produced = set(layers.layer_metrics([], _no_counts(), 1.0, (0, 1)))
    assert produced | {"host.ref_loop_ms", "trace.overhead_ratio"} == set(layer)


def test_sharded_run_merges_worker_spans(tmp_path):
    """Hooks installed, a small 2-shard stencil: worker spans arrive in
    their own files and the codec/transport layers are seen."""
    code = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {BENCH!r})
        import layers, spans
        rec = spans.SpanRecorder()
        layers.install(rec, {str(tmp_path)!r})
        from repro.apps.stencil.driver import run_stencil
        from repro.network.params import ABE
        run_stencil(ABE, 16, domain=(32, 32, 32), vr=2, iterations=2,
                    mode="msg", shards=2)
        rec.flush({str(tmp_path)!r})
        procs = spans.load_dir({str(tmp_path)!r})
        print(json.dumps({{"procs": sorted(p.proc for p in procs),
                          "totals": spans.merge_totals(procs)}}))
    """)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env = {k: v for k, v in env.items() if not k.startswith("REPRO_")}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["procs"] == [0, 1, 2]  # coordinator + two supervised shards
    totals = res["totals"]
    for name in ("sim.dispatch", "charm.sched", "charm.send", "apps.entry",
                 "parallel.encode", "transport.send", "resilience.wait"):
        assert totals[name][0] > 0, name
