"""Fault plans: what can go wrong on the simulated fabric, and how often.

A :class:`FaultPlan` is a declarative description of an imperfect
fabric: per-delivery probabilities of a delivery being **dropped**,
**duplicated**, or **delayed** by sampled jitter, of the sending NIC
**stalling**, and — specific to CkDirect's out-of-band completion
scheme — of a put landing its payload but losing (**tearing**) the
trailing sentinel word, the failure mode that silently defeats the
poll sweep (paper §2.1).

Faults are *scoped* per transport service so a profile can target the
unprotected CkDirect data path without starving the control plane:

* ``"put"``   — :meth:`Fabric.direct_put` deliveries (the RDMA write /
  DCMF send carrying a CkDirect put),
* ``"ack"``   — the reliability layer's completion acks,
* ``"charm"`` — :meth:`Fabric.charm_transport` messages,
* ``"raw"``   — bare :meth:`Fabric.transfer` calls (the simulated-MPI
  driving path).

The built-in profiles (:data:`PROFILES`) only fault the ``put``/``ack``
scopes: those are exactly the deliveries the new reliability machinery
(sequence numbers + retransmit + watchdog + fallback) can recover, so
an application run under any built-in profile must still produce
bit-identical results — the property ``repro chaos`` asserts.
Dropping ``charm``/``raw`` deliveries deadlocks a run by design (no
retransmission exists there); custom plans may still do it to study
exactly that.

All randomness is drawn from per-category :func:`repro.sim.rng.substream`
generators seeded from the plan's seed, so a faulted run is a pure
function of ``(workload, seed)`` and is reproducible at any ``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


class FaultConfigError(ValueError):
    """Raised for malformed fault plans or unknown profile names."""


@dataclass(frozen=True)
class FaultRule:
    """Fault probabilities for one transport-service scope.

    All probabilities are per delivery (or per ack, for ``ack_drop`` on
    the ``ack`` scope).  ``delay_mean`` parameterizes an exponential
    jitter added on top of the modelled delivery time; ``stall_time``
    is the length of a NIC freeze charged to the sending node's
    injection port.
    """

    drop: float = 0.0          # P(delivery lost)
    dup: float = 0.0           # P(delivery duplicated)
    delay: float = 0.0         # P(delivery jittered)
    delay_mean: float = 50e-6  # mean of the exponential jitter (s)
    torn: float = 0.0          # P(payload lands, sentinel word lost)
    stall: float = 0.0         # P(sender NIC stalls at injection)
    stall_time: float = 300e-6  # NIC freeze duration (s)

    def __post_init__(self) -> None:
        for name in ("drop", "dup", "delay", "torn", "stall"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise FaultConfigError(f"{name} must be a probability, got {p!r}")
        if self.delay_mean < 0 or self.stall_time < 0:
            raise FaultConfigError("delay_mean/stall_time must be non-negative")

    @property
    def active(self) -> bool:
        """True when any fault of this rule can actually fire."""
        return any(
            getattr(self, f) > 0.0
            for f in ("drop", "dup", "delay", "torn", "stall")
        )


#: Transport-service scopes a rule can attach to.
SCOPES = ("put", "ack", "charm", "raw")

_NO_FAULTS = FaultRule()


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of per-scope fault rules."""

    profile: str
    seed: int = 0x0FA11
    rules: Tuple[Tuple[str, FaultRule], ...] = ()

    def __post_init__(self) -> None:
        for scope, _rule in self.rules:
            if scope not in SCOPES:
                raise FaultConfigError(
                    f"unknown fault scope {scope!r}; expected one of {SCOPES}"
                )

    def rule(self, scope: str) -> FaultRule:
        """The rule for a scope (an all-zero rule when unconfigured)."""
        for s, r in self.rules:
            if s == scope:
                return r
        return _NO_FAULTS

    @property
    def active(self) -> bool:
        """True when any configured rule can fire a fault."""
        return any(r.active for _s, r in self.rules)

    @classmethod
    def named(cls, profile: str, seed: int = 0x0FA11) -> "FaultPlan":
        """Build one of the built-in profiles by name."""
        try:
            rules = PROFILES[profile]
        except KeyError:
            raise FaultConfigError(
                f"unknown fault profile {profile!r}; "
                f"known: {sorted(PROFILES)}"
            ) from None
        return cls(profile=profile, seed=seed, rules=rules)


#: Built-in profiles, keyed by the ``--faults`` CLI names.  Each is a
#: tuple of (scope, rule) pairs — tuples, not dicts, so plans stay
#: hashable and cheaply picklable for sweep workers.
PROFILES: Dict[str, Tuple[Tuple[str, FaultRule], ...]] = {
    # Reliability machinery armed, fabric perfect: measures the cost of
    # the protection itself and anchors the chaos oracle's comparisons.
    "none": (),
    # Put deliveries vanish; some acks vanish too, exercising duplicate
    # detection on the receiver when the sender retransmits a put that
    # actually arrived.
    "drop": (
        ("put", FaultRule(drop=0.15)),
        ("ack", FaultRule(drop=0.10)),
    ),
    # The CkDirect-specific failure: the RDMA write completes for the
    # payload but the trailing double word never lands, so the poll
    # sweep can never observe arrival (§2.1's sharp edge).
    "torn-sentinel": (
        ("put", FaultRule(torn=0.20)),
    ),
    # Deliveries arrive late (sometimes later than the retransmit
    # timeout — the stale-duplicate path) and occasionally twice.
    "delay": (
        ("put", FaultRule(delay=0.30, delay_mean=400e-6, dup=0.05)),
    ),
    # The sending NIC freezes, back-pressuring every later transfer
    # from that node through the injection-occupancy model.
    "nic-stall": (
        ("put", FaultRule(stall=0.08, stall_time=500e-6)),
    ),
}


def parse_profiles(spec: str) -> Tuple[str, ...]:
    """Parse a ``--faults`` value: comma-separated profile names.

    ``"all"`` expands to every built-in profile (deterministic order).
    """
    if spec.strip() == "all":
        return tuple(sorted(PROFILES))
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    if not names:
        raise FaultConfigError(f"no fault profiles in {spec!r}")
    for name in names:
        if name not in PROFILES:
            raise FaultConfigError(
                f"unknown fault profile {name!r}; known: {sorted(PROFILES)}"
            )
    return names


# ---------------------------------------------------------------------------
# Process-scope faults (``repro chaos --proc``)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcFaultRule:
    """One real fault against a shard worker *process*.

    Unlike :class:`FaultRule` these are not simulated-fabric faults: a
    ``kill`` rule SIGKILLs the worker at an epoch barrier, ``hang``
    wedges it in a SIGTERM-ignoring sleep loop (exercising the
    supervisor's deadline + kill escalation), and ``slow`` adds a
    per-barrier wall-clock delay (a straggler that must *not* trip the
    hang detector).  ``at_round`` is 1-based and counts the barriers
    the target worker reaches.  One-shot rules (the default) fire only
    in the worker's first incarnation, so a supervised restart
    recovers; ``every_incarnation`` re-fires in replacements too and
    exhausts the restart budget — the serial-degradation path.
    """

    kind: str                        # "kill" | "hang" | "slow"
    shard: int = 1                   # target shard id
    at_round: int = 3                # barrier at which kill/hang fires
    every_incarnation: bool = False  # refire after supervised restarts
    slow_s: float = 0.0              # per-barrier delay for "slow"

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "hang", "slow"):
            raise FaultConfigError(
                f"proc fault kind must be kill, hang, or slow, "
                f"got {self.kind!r}"
            )
        if self.shard < 0:
            raise FaultConfigError(f"shard must be >= 0, got {self.shard}")
        if self.at_round < 1:
            raise FaultConfigError(
                f"at_round must be >= 1, got {self.at_round}"
            )
        if self.slow_s < 0:
            raise FaultConfigError(f"slow_s must be >= 0, got {self.slow_s}")


@dataclass(frozen=True)
class ProcFaultPlan:
    """A named set of process-scope fault rules (picklable, frozen)."""

    profile: str
    rules: Tuple[ProcFaultRule, ...] = ()

    @classmethod
    def named(cls, profile: str) -> "ProcFaultPlan":
        """Build one of the built-in proc profiles by name."""
        try:
            rules = PROC_PROFILES[profile]
        except KeyError:
            raise FaultConfigError(
                f"unknown proc fault profile {profile!r}; "
                f"known: {sorted(PROC_PROFILES)}"
            ) from None
        return cls(profile=profile, rules=rules)

    def for_shard(self, shard: int, incarnation: int) -> Tuple[ProcFaultRule, ...]:
        """The rules that apply to one worker incarnation."""
        return tuple(
            r for r in self.rules
            if r.shard == shard and (incarnation == 0 or r.every_incarnation)
        )


#: Built-in process-scope chaos profiles (``--proc`` CLI names).  The
#: ``corrupt-object`` profile has no worker rules — it targets the
#: serve :class:`~repro.serve.store.ResultStore` instead (the chaos
#: harness bit-flips a stored object and asserts quarantine +
#: recompute); it lives here so one flag namespace covers every
#: process-scope fault.
PROC_PROFILES: Dict[str, Tuple[ProcFaultRule, ...]] = {
    "kill-shard": (ProcFaultRule("kill", shard=1, at_round=3),),
    "hang-shard": (ProcFaultRule("hang", shard=1, at_round=3),),
    "slow-worker": (ProcFaultRule("slow", shard=1, slow_s=0.002),),
    "corrupt-object": (),
}


def parse_proc_profiles(spec: str) -> Tuple[str, ...]:
    """Parse a ``--proc`` value: comma-separated proc profile names.

    ``"all"`` expands to every built-in proc profile (deterministic
    order).
    """
    if spec.strip() == "all":
        return tuple(sorted(PROC_PROFILES))
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    if not names:
        raise FaultConfigError(f"no proc fault profiles in {spec!r}")
    for name in names:
        if name not in PROC_PROFILES:
            raise FaultConfigError(
                f"unknown proc fault profile {name!r}; "
                f"known: {sorted(PROC_PROFILES)}"
            )
    return names


@dataclass(frozen=True)
class ReliabilityParams:
    """Knobs of the put-reliability layer (all simulated seconds).

    Installed on the runtime whenever a :class:`FaultPlan` is; the
    defaults sit well above Abe/Surveyor delivery latencies (tens of
    microseconds) so a clean put is never spuriously retransmitted,
    while a lost one recovers within a few hundred microseconds.
    """

    rto_initial: float = 200e-6   # first retransmit timeout
    rto_backoff: float = 2.0      # exponential backoff factor
    max_attempts: int = 4         # RDMA attempts before falling back
    ack_bytes: int = 16           # completion-ack control payload
    watchdog_period: float = 500e-6   # poll-queue scan interval
    watchdog_timeout: float = 1.2e-3  # in-flight age that counts as a stall

    def __post_init__(self) -> None:
        if self.rto_initial <= 0 or self.rto_backoff < 1.0:
            raise FaultConfigError("rto_initial must be > 0 and backoff >= 1")
        if self.max_attempts < 1:
            raise FaultConfigError("max_attempts must be at least 1")
        if self.watchdog_period <= 0 or self.watchdog_timeout <= 0:
            raise FaultConfigError("watchdog period/timeout must be > 0")

    def rto(self, attempt: int) -> float:
        """Retransmit timeout for the given 1-based attempt number."""
        return self.rto_initial * self.rto_backoff ** (attempt - 1)
