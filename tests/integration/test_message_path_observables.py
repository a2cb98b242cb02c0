"""Every per-message observable, pinned by digest.

The scheduler pass, the send path and the fabric transfer each bump
counters, sample stats and charge simulated time for every message.
A change that flattens one of them must not drop, double or move any
of that work.  The other tests check a few counters one at a time;
this one hashes everything a run reports:

* the full ``rt.trace.counters`` and each stat's ``(n, total)``;
* every PE's ``queue``/``internal_queue`` statistics and ``busy_time``;
* the iteration times (as float hex) and the event count.

The table covers both fabrics, both stencil modes, and the serial and
two-shard engines at 64 PEs.  On a mismatch the assertion prints the
new digest.  A change that moves simulated results by design (a new
contention order, say) regenerates the affected rows and says which
in CHANGES.md.
"""

import hashlib

import pytest

from repro.apps.stencil.driver import run_stencil
from repro.network.params import ABE, SURVEYOR

MACHINES = {"Abe": ABE, "Surveyor": SURVEYOR}

#: (machine, mode, shards) -> digest of the run's observables.
DIGESTS = {
    ("Abe", "msg", None):
        "9383210d48a912769a1a9b84ea1c16bfe17bcf04c45c26a9f44b5d838ec8d73a",
    ("Abe", "msg", 2):
        "20054e92200235d3ec9d0b9927f0b43f0c60ecec2dd7c236d55e1590340b1ea4",
    ("Abe", "ckd", None):
        "15a301774d28c1a37b8b695e220eb60be8f68832424d7069cb687883f5049e52",
    ("Abe", "ckd", 2):
        "97d6b34937380b8c613e043634b5151fe2b14658bcc7b9ca692fbfc0e20dcf65",
    ("Surveyor", "msg", None):
        "d662a25ace0b8098eff54e688eafb11d18236088bfdbbec71a753743210effa8",
    ("Surveyor", "msg", 2):
        "1fcedc6fcbc63b8d9b3a417d9f4784a827e2dba8c4188ae53e7c0a0b11d309be",
    ("Surveyor", "ckd", None):
        "66ad2b6d012e1e8ada1e040494662be8e64effa837491c2701f7f12f9b8186e9",
    ("Surveyor", "ckd", 2):
        "66de02231303a2d98e091e077ceeefc57f2ccaa61802d39ecdc7b4ff6e162ce5",
}


def observables_digest(result) -> str:
    """SHA-256 over every counter, stat, per-PE figure and timing."""
    rt = result.runtime
    h = hashlib.sha256()

    def put(*parts) -> None:
        h.update(repr(parts).encode())

    for name in sorted(rt.trace.counters):
        put("counter", name, rt.trace.counters[name])
    for name in sorted(rt.trace.stats):
        st = rt.trace.stats[name]
        put("stat", name, st.n, float(st.total).hex())
    for pe in rt.pes:
        for q in (pe.queue, pe.internal_queue):
            put("queue", pe.rank, q.enqueued, q.dequeues, q.max_occupancy,
                q.occupancy_sum)
        put("busy", pe.rank, float(pe.busy_time).hex())
    put("iter_times", [float(t).hex() for t in result.iter_times])
    put("events", result.events)
    return h.hexdigest()


@pytest.mark.parametrize("machine,mode,shards", list(DIGESTS))
def test_per_message_observables_are_pinned(machine, mode, shards):
    r = run_stencil(MACHINES[machine], 64, iterations=2, mode=mode,
                    shards=shards, keep_runtime=True)
    got = observables_digest(r)
    assert got == DIGESTS[machine, mode, shards], (
        f"observables of {machine} {mode} shards={shards} moved; "
        f"new digest: {got}"
    )
