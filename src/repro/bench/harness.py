"""Experiment runners: one function per table / figure / ablation.

Each runner regenerates its artifact on the simulated machines, prints
the same rows/series the paper reports (side by side with the paper's
printed values where they exist), and returns the structured results
the benchmark suite asserts shapes on.

PE counts default to a laptop-friendly subset of the paper's sweeps;
the ``full_scale`` knob (``--full-scale``) runs the full ranges (the
BG/P 4096-PE points take a few minutes each in pure Python).

Every table/figure runner takes ``jobs=`` (default: the configured
``jobs``, else serial) and fans its independent simulation
points out over a :class:`~repro.sweep.SweepRunner` worker pool.  All
derived values (milli-second conversions, percent improvements) are
computed here in the parent from the raw per-point means, so the
rendered reports are byte-identical at any jobs count.  The ablations
stay serial: they share runtime state (forced protocols, polling
modes) whose interplay is the point of the measurement.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..apps.openatom import abe_2cpn, run_openatom
from ..apps.pingpong import ckdirect_pingpong
from ..config import current
from ..network.params import ABE, SURVEYOR, T3, MachineParams
from ..sweep import RunSpec, SweepRunner, machine_overrides
from ..util.stats import percent_improvement
from . import paper_data
from .report import render_series, render_table


def full_scale() -> bool:
    """True when the run configuration asks for the paper's full PE ranges."""
    return current().full_scale


# ---------------------------------------------------------------------------
# Tables 1 and 2 (pingpong)
# ---------------------------------------------------------------------------


def _pingpong_table(
    machine: MachineParams,
    rows: Sequence[Tuple[str, str, Optional[str]]],
    sizes: Sequence[int],
    iterations: int,
    jobs: Optional[int],
    label: str,
) -> Dict[str, List[float]]:
    """Run a pingpong table's points (one per row x size) as a sweep."""
    specs = [
        RunSpec.make(
            "pingpong", machine.name, stack,
            size=s, iterations=iterations,
            **({"flavor": flavor} if flavor else {}),
        )
        for (_name, stack, flavor) in rows
        for s in sizes
    ]
    results = SweepRunner(jobs=jobs, label=label).run(specs)
    n = len(sizes)
    return {
        name: [results[i * n + j].unwrap()["rtt_us"] for j in range(n)]
        for i, (name, _stack, _flavor) in enumerate(rows)
    }


def run_table1(
    sizes: Optional[Sequence[int]] = None, iterations: int = 100,
    jobs: Optional[int] = None,
) -> Dict:
    """Table 1: pingpong RTT on Infiniband for all five stacks."""
    sizes = list(sizes if sizes is not None else paper_data.PINGPONG_SIZES)
    measured = _pingpong_table(
        ABE,
        [
            ("Default CHARM++", "charm", None),
            ("CkDirect CHARM++", "ckdirect", None),
            ("MPICH-VMI", "mpi", "MPICH-VMI"),
            ("MVAPICH", "mpi", "MVAPICH"),
            ("MVAPICH-Put", "mpi-put", "MVAPICH"),
        ],
        sizes, iterations, jobs, label="table1",
    )
    paper = paper_data.TABLE1_RTT_US if sizes == paper_data.PINGPONG_SIZES else None
    report = render_table(
        "Table 1: pingpong round-trip time, Infiniband (Abe)",
        sizes, measured, paper,
    )
    return {"sizes": sizes, "measured": measured, "paper": paper, "report": report}


def run_table2(
    sizes: Optional[Sequence[int]] = None, iterations: int = 100,
    jobs: Optional[int] = None,
) -> Dict:
    """Table 2: pingpong RTT on Blue Gene/P for all four stacks."""
    sizes = list(sizes if sizes is not None else paper_data.PINGPONG_SIZES)
    measured = _pingpong_table(
        SURVEYOR,
        [
            ("Default CHARM++", "charm", None),
            ("CkDirect CHARM++", "ckdirect", None),
            ("MPI", "mpi", None),
            ("MPI-Put", "mpi-put", None),
        ],
        sizes, iterations, jobs, label="table2",
    )
    paper = paper_data.TABLE2_RTT_US if sizes == paper_data.PINGPONG_SIZES else None
    report = render_table(
        "Table 2: pingpong round-trip time, Blue Gene/P (Surveyor)",
        sizes, measured, paper,
    )
    return {"sizes": sizes, "measured": measured, "paper": paper, "report": report}


# ---------------------------------------------------------------------------
# Figure 2 (stencil)
# ---------------------------------------------------------------------------


def _pair_sweep(
    kind: str,
    machine: MachineParams,
    pes: Sequence[int],
    jobs: Optional[int],
    label: str,
    **params,
) -> Tuple[List[float], List[float], List[float]]:
    """Run msg/ckd pairs at each PE count; return (gains, msg_ms, ckd_ms).

    The gain is computed here from the raw per-point means — the exact
    computation the serial drivers do — so the figures render
    identically at any jobs count.
    """
    specs = [
        RunSpec.make(kind, machine.name, mode, p,
                     **params, **machine_overrides(machine))
        for p in pes
        for mode in ("msg", "ckd")
    ]
    results = SweepRunner(jobs=jobs, label=label).run(specs)
    gains, msg_ms, ckd_ms = [], [], []
    for i in range(len(pes)):
        m = results[2 * i].unwrap()["mean_s"]
        c = results[2 * i + 1].unwrap()["mean_s"]
        gains.append(percent_improvement(m, c))
        msg_ms.append(m * 1e3)
        ckd_ms.append(c * 1e3)
    return gains, msg_ms, ckd_ms


def run_fig2a(
    pes: Optional[Sequence[int]] = None, iterations: int = 4,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 2(a): stencil % improvement on Infiniband (T3)."""
    pes = list(pes if pes is not None else (32, 64, 128, 256))
    gains, msg_ms, ckd_ms = _pair_sweep(
        "stencil", T3, pes, jobs, "fig2a", iterations=iterations
    )
    report = render_series(
        "Figure 2(a): Jacobi 1024x1024x512, VR 8 — Infiniband (T3)",
        "PEs", pes,
        {"msg iter (ms)": msg_ms, "ckd iter (ms)": ckd_ms, "improvement %": gains},
        unit="ms / %", claim=paper_data.FIGURE_CLAIMS["fig2a"],
    )
    return {"pes": pes, "gains": gains, "msg_ms": msg_ms, "ckd_ms": ckd_ms,
            "report": report}


def run_fig2b(
    pes: Optional[Sequence[int]] = None, iterations: int = 3,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 2(b): stencil % improvement on Blue Gene/P."""
    default = (64, 128, 256, 512, 1024, 2048, 4096) if full_scale() else (64, 128, 256, 512)
    pes = list(pes if pes is not None else default)
    gains, msg_ms, ckd_ms = _pair_sweep(
        "stencil", SURVEYOR, pes, jobs, "fig2b", iterations=iterations
    )
    report = render_series(
        "Figure 2(b): Jacobi 1024x1024x512, VR 8 — Blue Gene/P",
        "PEs", pes,
        {"msg iter (ms)": msg_ms, "ckd iter (ms)": ckd_ms, "improvement %": gains},
        unit="ms / %", claim=paper_data.FIGURE_CLAIMS["fig2b"],
    )
    return {"pes": pes, "gains": gains, "msg_ms": msg_ms, "ckd_ms": ckd_ms,
            "report": report}


# ---------------------------------------------------------------------------
# Figure 3 (matmul)
# ---------------------------------------------------------------------------


def run_fig3(
    machine: MachineParams,
    pes: Optional[Sequence[int]] = None,
    iterations: int = 2,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 3: matmul execution time versus PE count, one machine."""
    if pes is None:
        if machine.kind == "bgp":
            pes = (256, 512, 1024, 2048, 4096) if full_scale() else (64, 256, 1024)
        else:
            pes = (16, 64, 256)
    pes = list(pes)
    gains, msg_ms, ckd_ms = _pair_sweep(
        "matmul", machine, pes, jobs, f"fig3:{machine.name}",
        iterations=iterations,
    )
    report = render_series(
        f"Figure 3: MatMul 2048x2048 — {machine.name}",
        "PEs", pes,
        {"msg iter (ms)": msg_ms, "ckd iter (ms)": ckd_ms, "improvement %": gains},
        unit="ms / %", claim=paper_data.FIGURE_CLAIMS["fig3"],
    )
    return {"pes": pes, "gains": gains, "msg_ms": msg_ms, "ckd_ms": ckd_ms,
            "report": report}


# ---------------------------------------------------------------------------
# Figures 4 and 5 (OpenAtom)
# ---------------------------------------------------------------------------


def run_openatom_figure(
    machine: MachineParams,
    pes: Sequence[int],
    pc_only: bool,
    label: str,
    claim_key: str,
    jobs: Optional[int] = None,
    **cfg_overrides,
) -> Dict:
    """Shared sweep runner for the Figure 4/5 panels."""
    gains, msg_ms, ckd_ms = _pair_sweep(
        "openatom", machine, pes, jobs,
        f"{claim_key}:{'pc' if pc_only else 'full'}",
        pc_only=pc_only, **cfg_overrides,
    )
    report = render_series(
        label, "PEs", list(pes),
        {"msg step (ms)": msg_ms, "ckd step (ms)": ckd_ms, "improvement %": gains},
        unit="ms / %", claim=paper_data.FIGURE_CLAIMS[claim_key],
    )
    return {"pes": list(pes), "gains": gains, "msg_ms": msg_ms, "ckd_ms": ckd_ms,
            "report": report}


def run_fig4(
    pes: Optional[Sequence[int]] = None, jobs: Optional[int] = None
) -> Dict:
    """Figure 4: OpenAtom step time on Abe (2 cores/node): (a) full
    application, (b) PairCalculator-only."""
    pes = list(pes if pes is not None else (16, 32, 64))
    abe2 = abe_2cpn(ABE)
    full = run_openatom_figure(
        abe2, pes, False, "Figure 4(a): OpenAtom w256M-like — Abe, full step",
        "fig4", jobs=jobs,
    )
    pc = run_openatom_figure(
        abe2, pes, True, "Figure 4(b): OpenAtom w256M-like — Abe, PC-only",
        "fig4", jobs=jobs,
    )
    return {"full": full, "pc_only": pc,
            "report": full["report"] + "\n\n" + pc["report"]}


def run_fig5(
    pes: Optional[Sequence[int]] = None, jobs: Optional[int] = None
) -> Dict:
    """Figure 5: OpenAtom step time on Blue Gene/P: (a) full, (b) PC-only."""
    default = (64, 128, 256, 512) if full_scale() else (64, 128, 256)
    pes = list(pes if pes is not None else default)
    full = run_openatom_figure(
        SURVEYOR, pes, False, "Figure 5(a): OpenAtom w256M-like — BG/P, full step",
        "fig5", jobs=jobs,
    )
    pc = run_openatom_figure(
        SURVEYOR, pes, True, "Figure 5(b): OpenAtom w256M-like — BG/P, PC-only",
        "fig5", jobs=jobs,
    )
    return {"full": full, "pc_only": pc,
            "report": full["report"] + "\n\n" + pc["report"]}


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md A1-A3)
# ---------------------------------------------------------------------------


def run_polling_ablation(n_pes: int = 64) -> Dict:
    """A1 — §5.2: naive ``ready`` everywhere versus the ReadyMark /
    ReadyPollQ phase-confined polling, versus plain messages."""
    abe2 = abe_2cpn(ABE)
    msg = run_openatom(abe2, n_pes, mode="msg").mean_step_time * 1e3
    phased = run_openatom(abe2, n_pes, mode="ckd", polling="phased").mean_step_time * 1e3
    naive = run_openatom(abe2, n_pes, mode="ckd", polling="naive").mean_step_time * 1e3
    report = render_series(
        "Ablation A1: polling discipline (OpenAtom, Abe)",
        "variant", ["msg", "ckd-naive", "ckd-phased"],
        {"step (ms)": [msg, naive, phased]},
        unit="ms", claim=paper_data.FIGURE_CLAIMS["sec5.2"],
    )
    return {"msg_ms": msg, "naive_ms": naive, "phased_ms": phased, "report": report}


def run_protocol_ablation(
    sizes: Sequence[int] = (10_000, 30_000, 70_000, 200_000),
    iterations: int = 100,
) -> Dict:
    """A2 — §3: force each two-sided protocol across sizes to expose
    the crossover structure: packetization's per-byte overhead loses to
    rendezvous's fixed handshake+registration as messages grow."""
    from ..charm import Runtime
    from ..charm.runtime import collector_off
    from ..apps.pingpong import CROSS_NODE, _MsgPinger

    results: Dict[str, List[float]] = {"packet": [], "rendezvous": []}
    for proto in results:
        for nbytes in sizes:
            rt = Runtime(ABE, n_pes=2 * ABE.cores_per_node)
            rt.fabric.force_protocol(proto)
            arr = rt.create_array(
                _MsgPinger, dims=(2,), ctor_args=(iterations, nbytes),
                mapping=CROSS_NODE,
            )
            arr.proxy[0].start()
            with collector_off():  # until close() has freed the run
                rt.run()
                rt.close()
            results[proto].append(rt.result_time * 1e6)
    report = render_series(
        "Ablation A2: forced two-sided protocol vs message size (Abe)",
        "size (B)", list(sizes),
        {k: v for k, v in results.items()},
        unit="us RTT",
        claim="Default Charm++ switches packet->rendezvous between 20KB "
              "and 30KB; rendezvous wins decisively as size grows "
              "(Table 1 discussion).",
    )
    return {"sizes": list(sizes), "rtt_us": results, "report": report}


def run_vr_ablation(
    n_pes: int = 64, ratios: Sequence[int] = (1, 2, 4, 8, 16),
    iterations: int = 3,
) -> Dict:
    """A4 — §4.1's virtualization observations: "the program benefited
    greatly from processor virtualization", best execution near VR 8,
    and "greater percentage gains at finer granularities" (the message
    version pays per-message overheads that grow with the chare count;
    CkDirect does not)."""
    from ..apps.stencil.driver import run_stencil

    msg_ms, ckd_ms, gains = [], [], []
    for vr in ratios:
        m = run_stencil(T3, n_pes, vr=vr, iterations=iterations, mode="msg")
        c = run_stencil(T3, n_pes, vr=vr, iterations=iterations, mode="ckd")
        msg_ms.append(m.mean_iter_time * 1e3)
        ckd_ms.append(c.mean_iter_time * 1e3)
        gains.append(percent_improvement(m.mean_iter_time, c.mean_iter_time))
    report = render_series(
        f"Ablation A4: virtualization ratio (stencil, T3, {n_pes} PEs)",
        "chares/PE", list(ratios),
        {"msg iter (ms)": msg_ms, "ckd iter (ms)": ckd_ms, "improvement %": gains},
        unit="ms / %",
        claim="Virtualization overlaps communication with computation; "
              "CkDirect keeps the benefit at fine granularity where the "
              "message version's scheduling overheads bite (§4.1).",
    )
    return {"ratios": list(ratios), "msg_ms": msg_ms, "ckd_ms": ckd_ms,
            "gains": gains, "report": report}


def run_backward_path_ablation(n_pes: int = 32) -> Dict:
    """A5 — §5.2's anticipation: "further improvements in OpenAtom's
    performance when the CkDirect optimization is integrated into other
    phases".  Compares messages, forward-only CkDirect (the paper's
    implementation), and CkDirect in the backward return path too."""
    abe2 = abe_2cpn(ABE)
    rows = {
        "msg": run_openatom(abe2, n_pes, mode="msg").mean_step_time * 1e3,
        "ckd (paper)": run_openatom(abe2, n_pes, mode="ckd").mean_step_time * 1e3,
        "ckd-full (both paths)": run_openatom(
            abe2, n_pes, mode="ckd-full"
        ).mean_step_time * 1e3,
    }
    report = render_series(
        f"Ablation A5: CkDirect in the backward path too (OpenAtom, Abe, {n_pes} PEs)",
        "variant", list(rows),
        {"step (ms)": list(rows.values())},
        unit="ms",
        claim="'We anticipate further improvements ... when the CkDirect "
              "optimization is integrated into other phases' (§5.2).",
    )
    return {"step_ms": rows, "report": report}


def run_mpi_sync_ablation(nbytes: int = 10_000, epochs: int = 50) -> Dict:
    """A3 — §2.3: cost of completing one put under each MPI
    synchronization scheme (fence / PSCW / lock-unlock), versus a bare
    CkDirect put+detect.  Reproduces the related-work argument that
    every MPI scheme drags synchronization the application did not
    need."""
    from ..mpi import MPIWorld, Win

    def fence_loop() -> float:
        world = MPIWorld(ABE, 2, flavor="MVAPICH")
        win = Win(world)
        r0, r1 = world.ranks
        state = {"n": 0}

        def one_epoch():
            if state["n"] >= epochs:
                return
            state["n"] += 1
            win.put_raw(r0, 1, nbytes)
            done = {"c": 0}
            def after_fence():
                done["c"] += 1
                if done["c"] == 2:
                    one_epoch()
            win.fence(r0, after_fence)
            win.fence(r1, after_fence)

        win.fence(r0, lambda: None)
        win.fence(r1, one_epoch)
        world.run()
        return world.sim.now / epochs * 1e6

    def pscw_loop() -> float:
        world = MPIWorld(ABE, 2, flavor="MVAPICH")
        win = Win(world)
        r0, r1 = world.ranks
        state = {"n": 0}

        def one_epoch():
            if state["n"] >= epochs:
                return
            state["n"] += 1
            win.post(r1, [0])
            win.wait(r1, one_epoch)
            def started():
                win.put_raw(r0, 1, nbytes)
                win.complete(r0, 1)
            win.start(r0, started)

        one_epoch()
        world.run()
        return world.sim.now / epochs * 1e6

    def lock_loop() -> float:
        world = MPIWorld(ABE, 2, flavor="MVAPICH")
        win = Win(world)
        r0, r1 = world.ranks
        state = {"n": 0}

        def one_epoch():
            if state["n"] >= epochs:
                return
            state["n"] += 1
            def locked():
                win.put_raw(r0, 1, nbytes)
                win.unlock(r0, 1, one_epoch)
            win.lock(r0, 1, locked)

        one_epoch()
        world.run()
        return world.sim.now / epochs * 1e6

    ckd = ckdirect_pingpong(ABE, nbytes, iterations=epochs).rtt_us / 2.0
    results = {
        "fence": fence_loop(),
        "pscw": pscw_loop(),
        "lock-unlock": lock_loop(),
        "ckdirect (one-way)": ckd,
    }
    report = render_series(
        f"Ablation A3: one {nbytes}B put per epoch under each MPI sync scheme",
        "scheme", list(results.keys()),
        {"epoch time (us)": list(results.values())},
        unit="us",
        claim="MPI one-sided completion drags synchronization the "
              "application's own structure already provides (§2.3).",
    )
    return {"nbytes": nbytes, "epoch_us": results, "report": report}
