"""Steadiness mode: is one run of the benchmark repeatable on this host?

    python3 perfbench/steadiness.py

Runs two interleaved sets of five untraced runs of every workload
(each run a fresh ``run.py`` with its own seed and ``run_seconds``
from ``BENCHMARK.json``), then prints for each end-to-end metric the
per-set medians and quartiles, the spread (interquartile range over
the median, all runs pooled) and the gap between the set medians
(``|m1 - m0| / min(m0, m1)``, either direction), each against the
metric's bound.  Raw results go to ``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUNS = 5       # runs per set
SETS = 2
SEED_BASE = 100


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def gap(m0: float, m1: float) -> float:
    """Distance between two set medians, as a share of the smaller."""
    low = min(m0, m1)
    return abs(m1 - m0) / low if low else float(m0 != m1)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    res["exit"] = out.returncode
    return res


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in names}
    for i in range(RUNS):
        for s in range(SETS):
            for w in names:
                seed = SEED_BASE + i * SETS + s
                res = one_run(w, seed, bench["run_seconds"])
                results[w][s].append(res)
                vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
                print(f"run {i} set {s} {w} seed {seed} exit {res['exit']} {vals}",
                      flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steadiness.json"), "w") as f:
        json.dump(results, f, indent=1)

    ok = True
    print(f"\n{'workload':20s} {'metric':14s} {'set medians':>24s} "
          f"{'spread':>8s} {'gap':>8s} {'bound':>6s}")
    for w in names:
        for m in bench["end_to_end"]:
            name = m["name"]
            sets = [[r["metrics"][name]["value"] for r in runs
                     if name in r["metrics"]] for runs in results[w]]
            if any(len(v) < 2 for v in sets):
                print(f"{w:20s} {name:14s} missing values")
                ok = False
                continue
            meds = [statistics.median(v) for v in sets]
            sp = spread([v for vals in sets for v in vals])
            g = gap(*meds)
            quart = " ".join(
                "[" + ",".join(f"{q:.3f}" for q in statistics.quantiles(v, n=4)) + "]"
                for v in sets)
            flag = ""
            if sp > m["bound"]:
                flag, ok = "SPREAD>BOUND", False
            elif g > m["bound"]:
                flag, ok = "GAP>BOUND", False
            elif sp > m["bound"] / 3:
                flag = "spread>bound/3"
            print(f"{w:20s} {name:14s} "
                  f"{' '.join(f'{x:.4f}' for x in meds):>24s} "
                  f"{sp:8.4f} {g:8.4f} {m['bound']:6.3f} {flag} quartiles {quart}")
    fails = sum(r["exit"] != 0 for runs in results.values() for s in runs for r in s)
    print(f"\nruns with a non-zero exit: {fails}")
    return 0 if ok and not fails else 1


if __name__ == "__main__":
    sys.exit(main())
