"""The repository's benchmark: host time of real runs, end to end and per layer.

    python3 perfbench/run.py --workload stencil-pair --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each sample is a fresh process
(``sample.py``) with inherited ``REPRO_*`` settings removed; samples,
each after ``SETUP_PROBES`` setup-only samples, repeat until
``--seconds`` is used up and every end-to-end metric is reported as
the median over samples (``setup_s`` over the probes too).
``--trace 1`` instead runs one untraced and one traced sample and
reports the per-layer metrics.  Every sample's output is checked
against ``expected.json``; a mismatch, a failed sample, or a
left-behind child process or ``/dev/shm`` segment fails the run.  The
last line of stdout is the result as JSON; the exit code is 0 only
when every sample was correct.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Per-sample measurements whose median over the run's samples is
#: reported; ``success_ratio`` completes the end-to-end metrics.
SAMPLE_METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")

#: Setup-only samples before each full sample: ``setup_s`` is short
#: and noisy, so it gets more samples than the run phase.
SETUP_PROBES = 2

#: No run may outlive this many seconds, whatever its samples do.
RUN_LIMIT_S = 170.0


def ref_loop_ms() -> float:
    """A fixed pure-Python loop, timed: the host-drift diagnostic."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def become_subreaper() -> None:
    """Orphaned grandchildren are re-parented here, so a worker a
    sample leaves behind is found by :func:`own_children`."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def own_children() -> List[int]:
    me = str(os.getpid())
    out = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            out.append(int(pid))
    return out


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def reap_leftovers() -> List[int]:
    """Kill and reap every process left behind; returns their PIDs."""
    left = own_children()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in left:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return left


def sample_env() -> Dict[str, str]:
    """The default configuration: no ``REPRO_*`` setting survives."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_one(workload: str, seed: int, traced: bool, deadline: float,
            setup_only: bool = False) -> dict:
    """Spawn one sample; returns its result with an ``error`` key on any
    failure (crash, timeout, wrong output, leak)."""
    span_dir = os.path.join(OUT_DIR, "spans", workload)
    if traced:
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)
    shm_before = shm_segments()
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--span-dir", span_dir,
           "--t0", repr(time.monotonic())] + (["--setup-only"] if setup_only else [])
    timeout = max(1.0, deadline - time.monotonic())
    # Files, not pipes: a process the sample leaves behind would hold a
    # pipe open and stall the read until it exits.
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "sample.out"), "w+") as out, \
            open(os.path.join(OUT_DIR, "sample.err"), "w+") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=sample_env(), stdout=out,
                                  stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            reap_leftovers()
            return {"error": f"sample timed out after {timeout:.0f} s"}
        left = reap_leftovers()
        out.seek(0)
        err.seek(0)
        try:
            res = json.loads(out.read().strip().splitlines()[-1])
        except (IndexError, ValueError):
            res = {"error": f"sample exited {proc.returncode} without a result:\n"
                            f"{err.read()[-2000:]}"}
    if "error" in res:
        return res
    problems = []
    if left:
        problems.append(f"left child processes {left}")
    new_shm = shm_segments() - shm_before
    if new_shm:
        problems.append(f"left /dev/shm segments {sorted(new_shm)}")
    if not setup_only:
        expected = load_json(os.path.join(HERE, "expected.json")).get(workload)
        if res["digest"] != expected:
            problems.append(f"output digest {res['digest']} != expected {expected}")
        if res["counts"]["restarts"]:
            problems.append(f"{res['counts']['restarts']} supervisor restarts")
    if problems:
        res["error"] = "; ".join(problems)
    return res


def load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (none in an export)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return None


def run_record(workload: str, seed: int, traced: bool, samples: List[dict],
               probes: List[dict], ref_ms: List[float]) -> dict:
    cfg: Dict[str, set] = {}
    for s in samples:
        for k, v in s.get("counts", {}).get("config", {}).items():
            cfg.setdefault(k, set()).update(v)
        cfg.setdefault("sample_cpus", set()).update(s.get("cpus", ()))
    return {
        "workload": workload, "seed": seed, "trace": int(traced),
        "samples": len(samples),
        "setup_probes": len(probes),
        "host.ref_loop_ms": ref_ms,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "config": {k: sorted(v) for k, v in cfg.items()},
        "commit": git_commit(),
        "errors": [s["error"][-500:] for s in samples + probes if "error" in s],
    }


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    """Untraced samples, each after its setup probes, until ``seconds``
    is used up (at least one)."""
    t_start = time.monotonic()
    samples, probes, ref_ms, longest = [], [], [], 0.0
    while True:
        t = time.monotonic()
        for _ in range(SETUP_PROBES):
            probes.append(run_one(workload, seed, False, deadline, setup_only=True))
        ref_ms.append(ref_loop_ms())
        samples.append(run_one(workload, seed, False, deadline))
        longest = max(longest, time.monotonic() - t)
        if any("error" in s for s in [samples[-1]] + probes[-SETUP_PROBES:]):
            break
        if time.monotonic() - t_start + longest > seconds:
            break
    return samples, probes, ref_ms


def precompile() -> None:
    """Byte-compile the sources once per checkout, so the first sample's
    ``setup_s`` does not include compiling them."""
    if os.path.isdir(os.path.join(ROOT, "src", "repro", "__pycache__")):
        return
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src"), HERE],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=False)


def main(argv=None) -> int:
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro in this checkout; nothing to measure",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    become_subreaper()
    precompile()
    traced = bool(args.trace)
    probes: List[dict] = []
    if traced:
        ref_ms = [ref_loop_ms()]
        base = run_one(args.workload, args.seed, False, deadline)
        samples = [base]
        if "error" not in base:
            ref_ms.append(ref_loop_ms())
            samples.append(run_one(args.workload, args.seed, True, deadline))
    else:
        samples, probes, ref_ms = measure(args.workload, args.seed, args.seconds,
                                          deadline)

    # Every spawned sample is an attempt, setup probes included.
    ok = [s for s in samples + probes if "error" not in s]
    attempted = len(samples) + len(probes)
    failed = attempted - len(ok)
    full = [s for s in samples if "error" not in s]
    metrics: Dict[str, float] = {}
    if traced and not failed:
        base, tr = samples
        metrics = dict(tr["layers"])
        metrics["host.ref_loop_ms"] = statistics.median(ref_ms)
        metrics["trace.overhead_ratio"] = tr["wall_s"] / base["wall_s"]
    elif not traced and full:
        for k in SAMPLE_METRICS:
            metrics[k] = statistics.median(s[k] for s in (ok if k == "setup_s" else full))
        metrics["success_ratio"] = len(ok) / attempted
    record = run_record(args.workload, args.seed, traced, samples, probes, ref_ms)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if traced else "end_to_end"]}
    for err in record["errors"]:
        print(f"FAILED: {err}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{args.workload:20s} {name:28s} {metrics[name]:>16.6f} {unit}")
    if not traced:
        for k, group in (("wall_s", samples), ("setup_s", samples + probes)):
            print(f"{args.workload:20s} {k} samples: "
                  + " ".join(f"{s[k]:.3f}" for s in group if k in s))
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
