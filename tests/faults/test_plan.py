"""Unit tests for fault plans, profiles, and reliability knobs."""

import pytest

from repro.faults import (
    PROFILES,
    FaultConfigError,
    FaultPlan,
    FaultRule,
    ReliabilityParams,
    parse_profiles,
)


# ---------------------------------------------------------------------------
# FaultRule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", ["drop", "dup", "delay", "torn", "stall"])
@pytest.mark.parametrize("value", [-0.1, 1.5])
def test_rule_rejects_non_probabilities(field, value):
    with pytest.raises(FaultConfigError):
        FaultRule(**{field: value})


@pytest.mark.parametrize("field", ["delay_mean", "stall_time"])
def test_rule_rejects_negative_magnitudes(field):
    with pytest.raises(FaultConfigError):
        FaultRule(**{field: -1e-6})


def test_rule_active():
    assert not FaultRule().active
    assert not FaultRule(delay_mean=1e-3).active  # magnitude alone: inert
    for field in ("drop", "dup", "delay", "torn", "stall"):
        assert FaultRule(**{field: 0.01}).active


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


def test_plan_rejects_unknown_scope():
    with pytest.raises(FaultConfigError):
        FaultPlan(profile="x", rules=(("nic", FaultRule(drop=0.5)),))


def test_plan_rule_lookup_defaults_to_no_faults():
    plan = FaultPlan(profile="x", rules=(("put", FaultRule(drop=0.5)),))
    assert plan.rule("put").drop == 0.5
    assert not plan.rule("charm").active
    assert plan.active


def test_named_profiles():
    for name in PROFILES:
        plan = FaultPlan.named(name)
        assert plan.profile == name
        assert plan.active == (name != "none")
    with pytest.raises(FaultConfigError):
        FaultPlan.named("packet-storm")


def test_builtin_profiles_spare_the_control_plane():
    """Built-in profiles must only fault put/ack: those are the scopes
    the reliability layer can recover, which is what keeps the chaos
    oracle's bit-identity guarantee sound."""
    for name, rules in PROFILES.items():
        for scope, rule in rules:
            assert scope in ("put", "ack"), (name, scope)


# ---------------------------------------------------------------------------
# parse_profiles
# ---------------------------------------------------------------------------


def test_parse_profiles():
    assert parse_profiles("all") == tuple(sorted(PROFILES))
    assert parse_profiles("drop, torn-sentinel") == ("drop", "torn-sentinel")
    with pytest.raises(FaultConfigError):
        parse_profiles("drop,bogus")
    with pytest.raises(FaultConfigError):
        parse_profiles(" , ")


# ---------------------------------------------------------------------------
# ReliabilityParams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"rto_initial": 0.0},
    {"rto_backoff": 0.5},
    {"max_attempts": 0},
    {"watchdog_period": 0.0},
    {"watchdog_timeout": 0.0},
])
def test_reliability_params_validation(kwargs):
    with pytest.raises(FaultConfigError):
        ReliabilityParams(**kwargs)


def test_rto_backoff_schedule():
    params = ReliabilityParams(rto_initial=100e-6, rto_backoff=2.0)
    assert params.rto(1) == pytest.approx(100e-6)
    assert params.rto(2) == pytest.approx(200e-6)
    assert params.rto(4) == pytest.approx(800e-6)
