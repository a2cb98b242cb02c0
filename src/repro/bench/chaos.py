"""The chaos oracle (``repro chaos``): every app, every fault profile,
bit-identical results.

The paper's central claim is that CkDirect puts need *no per-message
synchronization*; the reliability layer's claim is that this stays true
on an imperfect fabric.  The oracle checks both at once: it runs the
stencil, matmul, and OpenAtom mini-apps in CKD mode under each built-in
fault profile and asserts

* **bit-identity** — the gathered application state (stencil grid,
  matmul product blocks, OpenAtom GSpace points + PairCalculator
  operand buffers) is byte-for-byte the state of a clean run, and
* **reference match** — that state also matches the analytic reference
  (Jacobi sweeps of the assembled initial grid; ``A @ B`` of the
  deterministic input slices; the damped-points recurrence).

Bit-identity is a meaningful bar because source buffers only mutate
after an iteration barrier, and every barrier is gated on every put of
the iteration being *delivered* (directly for the stencil/matmul ghost
and block exchanges; through the global Ortho reduction for OpenAtom).
Duplicate and stale landings are discarded by the reliability layer's
sequence check *before* the payload copy, so no recovery schedule —
retransmit, watchdog repair, or degraded fallback — may legitimately
change a single bit of application state.

The oracle runs on Abe with 16 PEs = 2 nodes: cross-node NIC traffic
exists, so the ``nic-stall`` profile has something to stall (at <= 8
PEs every transfer takes the intra-node shared-memory path and a NIC
fault cannot matter — physically consistent, but it would make that
profile a no-op).

Each (app, profile) pair is an independent sweep point, so ``--jobs N``
fans the matrix out over workers with byte-identical output at any N.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import current, install
from ..faults.plan import PROFILES
from ..network.params import MachineParams
from ..sim.rng import substream
from ..sweep import RunSpec, SweepRunner

#: Oracle machine / PE configuration (see module docstring).
CHAOS_MACHINE = "Abe"
CHAOS_PES = 16

#: Sentinel profile name for the fault-free baseline run.  Not a
#: FaultPlan profile: the baseline runs with *no* injector and *no*
#: reliability layer, so the ``none`` profile row doubles as a
#: measurement of the reliability protocol's own overhead.
CLEAN = "clean"

APPS: Tuple[str, ...] = ("stencil", "matmul", "openatom")

#: Small-but-honest app configurations: every communication structure
#: of the full experiments (ghost faces, block broadcasts, operand
#: assembly) at sizes where the whole matrix runs in seconds.
CHAOS_CONFIGS: Dict[str, Dict[str, Any]] = {
    "stencil": dict(domain=(16, 16, 16), vr=2, iterations=3),
    "matmul": dict(N=32, c=2, iterations=3),
    "openatom": dict(nstates=8, nplanes=2, grain=4, points_per_plane=64,
                     iterations=2, rest_rounds=2),
}

#: Recovery-activity counters reported per run (trace counter name ->
#: table column).
COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("ckdirect.retransmits", "retx"),
    ("ckdirect.dup_discards", "dup"),
    ("ckdirect.torn_recoveries", "torn"),
    ("ckdirect.watchdog_fires", "wdog"),
    ("ckdirect.fallback_puts", "fbk"),
    ("ckdirect.degraded_handles", "deg"),
)


def _digest(arrays: Sequence[np.ndarray]) -> str:
    """Order-sensitive content hash of the gathered application state."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Per-app oracles: run, gather, compare against the analytic reference
# ---------------------------------------------------------------------------


def _stencil_initial(domain, grid, seed: int) -> np.ndarray:
    """Assemble the global initial grid the blocks seeded themselves
    with (same per-block substreams, independent of decomposition)."""
    from ..apps.stencil.base import block_initial

    init = np.zeros(domain)
    bx, by, bz = (d // g for d, g in zip(domain, grid))
    for i in range(grid[0]):
        for j in range(grid[1]):
            for k in range(grid[2]):
                init[i * bx:(i + 1) * bx, j * by:(j + 1) * by,
                     k * bz:(k + 1) * bz] = block_initial(
                         (i, j, k), (bx, by, bz), seed)
    return init


def _run_stencil(machine, n_pes, faults, fault_seed):
    from ..apps.stencil.driver import gather_grid, run_stencil
    from ..apps.stencil.reference import jacobi_reference

    r = run_stencil(machine, n_pes, mode="ckd", validate=True,
                    keep_runtime=True, faults=faults, fault_seed=fault_seed,
                    **CHAOS_CONFIGS["stencil"])
    got = gather_grid(r)
    ref = jacobi_reference(_stencil_initial(r.domain, r.grid, seed=20090922),
                           r.iterations)
    # block_update computes exactly jacobi_step's expression per block,
    # so the reference holds bit-for-bit
    return r, [got], bool(np.array_equal(got, ref)), float(
        np.max(np.abs(got - ref))), r.mean_iter_time


def _run_matmul(machine, n_pes, faults, fault_seed):
    from ..apps.matmul.driver import gather_c, reference_c, run_matmul

    r = run_matmul(machine, n_pes, mode="ckd", validate=True,
                   keep_runtime=True, faults=faults, fault_seed=fault_seed,
                   **CHAOS_CONFIGS["matmul"])
    got = gather_c(r)
    ref = reference_c(r)
    # blockwise accumulation reorders the FP sums vs the global GEMM:
    # allclose against the reference, bit-identity across runs
    return r, [got], bool(np.allclose(got, ref)), float(
        np.max(np.abs(got - ref))), r.mean_iter_time


def _damped(points: np.ndarray, k: int) -> np.ndarray:
    """``k`` applications of the GSpace correction update, with the
    exact op order the chares use (multiply then add, in place)."""
    p = np.array(points, copy=True)
    for _ in range(k):
        np.multiply(p, 0.5, out=p)
        np.add(p, 0.5, out=p)
    return p


def _run_openatom(machine, n_pes, faults, fault_seed):
    from ..apps.openatom.config import OPENATOM_OOB
    from ..apps.openatom.driver import run_openatom

    r = run_openatom(machine, n_pes, mode="ckd", validate=True,
                     keep_runtime=True, faults=faults, fault_seed=fault_seed,
                     **CHAOS_CONFIGS["openatom"])
    cfg = r.cfg

    def initial(s: int, p: int) -> np.ndarray:
        return substream(cfg.seed, 2, s, p).random(cfg.points_per_plane) + 0.5

    gs_pts: List[Tuple[tuple, np.ndarray]] = []
    pc_ops: List[Tuple[tuple, np.ndarray, np.ndarray]] = []
    for arr in r.runtime.arrays.values():
        if arr.internal:
            continue
        for idx in sorted(arr.elements):
            elem = arr.elements[idx]
            if getattr(elem, "points", None) is not None:
                gs_pts.append((idx, elem.points))
            elif getattr(elem, "left", None) is not None:
                pc_ops.append((idx, elem.left, elem.right))

    # GSpace points were damped once per completed iteration; the
    # PairCalculator operands hold the points as *sent* in the final
    # iteration — one damping behind.
    ok, err = True, 0.0
    for (s, p), pts in gs_pts:
        exp = _damped(initial(s, p), cfg.iterations)
        ok = ok and np.array_equal(pts, exp)
        err = max(err, float(np.max(np.abs(pts - exp))))
    for (i, j, p), left, right in pc_ops:
        for off in range(cfg.grain):
            for block, op in ((i, left), (j, right)):
                exp = _damped(initial(block * cfg.grain + off, p),
                              cfg.iterations - 1)
                # the PC re-armed its channels after the final multiply,
                # re-stamping the out-of-band sentinel into each
                # operand's trailing word
                exp[-1] = OPENATOM_OOB
                ok = ok and np.array_equal(op[:, off], exp)
                err = max(err, float(np.max(np.abs(op[:, off] - exp))))

    arrays = [pts for _idx, pts in gs_pts]
    arrays += [a for _idx, l_op, r_op in pc_ops for a in (l_op, r_op)]
    return r, arrays, bool(ok), err, r.mean_step_time


_APP_RUNNERS = {
    "stencil": _run_stencil,
    "matmul": _run_matmul,
    "openatom": _run_openatom,
}


def chaos_point(
    machine: MachineParams,
    app: str,
    n_pes: int,
    profile: str,
    fault_seed: int = 0x0FA11,
) -> Dict[str, Any]:
    """Picklable sweep-point adapter: one (app, profile) oracle run.

    ``profile`` is a built-in fault profile name, or :data:`CLEAN` for
    the fault-free / reliability-free baseline the faulted runs are
    compared against.
    """
    if app not in _APP_RUNNERS:
        raise ValueError(f"app must be one of {sorted(_APP_RUNNERS)}, got {app!r}")
    faults = None if profile == CLEAN else profile
    result, arrays, ref_ok, ref_err, mean_s = _APP_RUNNERS[app](
        machine, n_pes, faults, fault_seed
    )
    rt = result.runtime
    out: Dict[str, Any] = {
        "digest": _digest(arrays),
        "ref_ok": ref_ok,
        "ref_err": ref_err,
        "mean_s": mean_s,
        "events": result.events,
        "injected": (rt.fault_injector.total_injected
                     if rt.fault_injector is not None else 0),
    }
    for counter, column in COUNTERS:
        out[column] = rt.trace.counter(counter)
    return out


# ---------------------------------------------------------------------------
# The matrix runner + report
# ---------------------------------------------------------------------------


def run_chaos(
    profiles: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    fault_seed: int = 0x0FA11,
) -> Dict[str, Any]:
    """Run the full chaos matrix; returns ``{"ok", "rows", "report"}``.

    ``ok`` is True only when every run matched its analytic reference
    and every faulted run was bit-identical to its app's clean run.
    """
    profiles = list(profiles if profiles is not None else sorted(PROFILES))
    per_app = [CLEAN] + profiles
    specs = [
        RunSpec.make("chaos", CHAOS_MACHINE, app, CHAOS_PES,
                     profile=prof, fault_seed=fault_seed)
        for app in APPS
        for prof in per_app
    ]
    results = SweepRunner(jobs=jobs, label="chaos").run(specs)

    rows: List[Dict[str, Any]] = []
    ok = True
    n = len(per_app)
    for a, app in enumerate(APPS):
        clean = results[a * n].unwrap()
        for p, prof in enumerate(per_app):
            values = results[a * n + p].unwrap()
            bit_identical = values["digest"] == clean["digest"]
            overhead = (values["mean_s"] - clean["mean_s"]) / clean["mean_s"]
            row = {
                "app": app,
                "profile": prof,
                "bit_identical": bit_identical,
                "ref_ok": values["ref_ok"],
                "ref_err": values["ref_err"],
                "injected": values["injected"],
                "overhead_pct": 100.0 * overhead,
                **{col: values[col] for _c, col in COUNTERS},
            }
            rows.append(row)
            ok = ok and bit_identical and values["ref_ok"]

    return {"ok": ok, "rows": rows, "report": _render(rows, ok)}


# ---------------------------------------------------------------------------
# Process-scope chaos (``repro chaos --proc``)
# ---------------------------------------------------------------------------

#: Expected supervision activity per worker profile: (min restarts,
#: max restarts).  ``slow-worker`` must *not* trip the hang detector.
_PROC_EXPECT: Dict[str, Tuple[int, int]] = {
    "kill-shard": (1, 10),
    "hang-shard": (1, 10),
    "slow-worker": (0, 0),
}

def _proc_worker_row(profile: str, shards: int,
                     clean: Dict[str, Any]) -> Dict[str, Any]:
    """One supervised faulted run vs the clean serial baseline."""
    from ..apps.stencil.driver import gather_grid, run_stencil
    from ..faults.plan import ProcFaultPlan
    from ..network.params import MACHINES

    r = run_stencil(
        MACHINES[CHAOS_MACHINE], CHAOS_PES, mode="ckd", validate=True,
        keep_runtime=True, shards=shards,
        proc_faults=ProcFaultPlan.named(profile),
        **CHAOS_CONFIGS["stencil"],
    )
    sup = r.runtime.supervision or {}
    lo, hi = _PROC_EXPECT[profile]
    restarts = sup.get("restarts", 0)
    return {
        "profile": profile,
        "restarts": restarts,
        "crashes": sup.get("crashes", 0),
        "hangs": sup.get("hangs", 0),
        "degraded": sup.get("degraded", False),
        "recovered": lo <= restarts <= hi and not sup.get("degraded", False),
        "bit_identical": (_digest([gather_grid(r)]) == clean["digest"]
                          and r.events == clean["events"]),
    }


def _corrupt_object_row(fault_seed: int) -> Dict[str, Any]:
    """Self-healing store round-trip: corrupt on disk -> quarantined,
    never served -> recomputed -> identical bytes, healed."""
    import tempfile

    from ..serve.digest import job_digest, result_payload
    from ..serve.store import ResultStore

    spec = RunSpec.make("chaos", CHAOS_MACHINE, "stencil", CHAOS_PES,
                        profile=CLEAN, fault_seed=fault_seed)
    payload = result_payload(
        SweepRunner(jobs=1, label="proc-chaos").run([spec]))
    digest = job_digest([spec])
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        store.put(digest, payload)
        path = store._path(digest)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40  # one flipped bit on disk
        path.write_bytes(bytes(raw))
        never_served = store.get(digest) is None
        quarantined = store.corruptions == 1 and store.quarantined == 1
        # The caller's cache-miss path: recompute and re-put.
        repayload = result_payload(
            SweepRunner(jobs=1, label="proc-chaos").run([spec]))
        store.put(digest, repayload)
        healed = store.healed == 1
        served = store.get(digest)
        bit_identical = served == payload and repayload == payload
    return {
        "profile": "corrupt-object",
        "restarts": 0,
        "crashes": 0,
        "hangs": 0,
        "degraded": False,
        "recovered": never_served and quarantined and healed,
        "bit_identical": bool(bit_identical),
    }


def run_proc_chaos(
    profiles: Optional[Sequence[str]] = None,
    shards: int = 2,
    fault_seed: int = 0x0FA11,
    hang_deadline_s: float = 3.0,
) -> Dict[str, Any]:
    """Run the process-scope chaos matrix; ``{"ok", "rows", "report"}``.

    Unlike :func:`run_chaos` the points run inline, sequentially: a
    sweep worker is daemonic and may not fork shard children of its
    own, and these faults target *real* processes, not the simulated
    fabric.  The rows run with the shard deadline lowered to
    ``hang_deadline_s`` so the hang profile converges in seconds.
    """
    from ..faults.plan import PROC_PROFILES
    from ..network.params import MACHINES

    profiles = list(profiles if profiles is not None else
                    sorted(PROC_PROFILES))
    for prof in profiles:
        if prof not in PROC_PROFILES:
            raise ValueError(
                f"unknown proc profile {prof!r}; known: "
                f"{sorted(PROC_PROFILES)}"
            )

    clean = chaos_point(
        MACHINES[CHAOS_MACHINE], "stencil", CHAOS_PES, CLEAN, fault_seed,
    )
    rows: List[Dict[str, Any]] = []
    with install(current().replace(shard_deadline=hang_deadline_s)):
        for prof in profiles:
            if prof == "corrupt-object":
                rows.append(_corrupt_object_row(fault_seed))
                continue
            rows.append(_proc_worker_row(prof, shards, clean))

    ok = all(r["recovered"] and r["bit_identical"] for r in rows)
    return {"ok": ok, "rows": rows,
            "report": _render_proc(rows, ok, shards)}


def _render_proc(rows: List[Dict[str, Any]], ok: bool, shards: int) -> str:
    title = (f"Process chaos: shard supervision + self-healing store "
             f"({CHAOS_MACHINE}, {CHAOS_PES} PEs, stencil, "
             f"{shards} shards)")
    cols = ["profile", "restarts", "crashes", "hangs",
            "degraded", "recovered", "bit-id"]
    table: List[List[str]] = [cols]
    for r in rows:
        table.append([
            r["profile"], str(r["restarts"]),
            str(r["crashes"]), str(r["hangs"]),
            "yes" if r["degraded"] else "no",
            "yes" if r["recovered"] else "NO",
            "yes" if r["bit_identical"] else "NO",
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(c.ljust(w) for c, w in zip(table[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(
        "proc oracle: PASS — every fault recovered with bit-identical "
        "output" if ok else
        "proc oracle: FAIL — at least one fault was not survived "
        "(see recovered / bit-id columns)"
    )
    return "\n".join(lines)


def _render(rows: List[Dict[str, Any]], ok: bool) -> str:
    title = (f"Chaos oracle: apps x fault profiles "
             f"({CHAOS_MACHINE}, {CHAOS_PES} PEs, ckd mode)")
    cols = (["app", "profile", "faults"] + [c for _n, c in COUNTERS]
            + ["bit-id", "ref", "overhead"])
    table: List[List[str]] = [cols]
    for r in rows:
        table.append(
            [r["app"], r["profile"], str(r["injected"])]
            + [str(r[c]) for _n, c in COUNTERS]
            + ["yes" if r["bit_identical"] else "NO",
               "ok" if r["ref_ok"] else f"MAX ERR {r['ref_err']:.3g}",
               "baseline" if r["profile"] == CLEAN
               else f"{r['overhead_pct']:+.1f}%"]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(c.ljust(w) for c, w in zip(table[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(
        "oracle: PASS — all runs bit-identical to clean and matching "
        "the analytic references" if ok else
        "oracle: FAIL — at least one run diverged (see bit-id / ref columns)"
    )
    return "\n".join(lines)
