"""Unit tests for the FaultInjector: determinism, wiring, bookkeeping."""

import pytest

from repro import ABE, Runtime
from repro.faults import FaultInjector, FaultPlan, FaultRule, ReliabilityParams
from repro.sim import Simulator


def _torn_plan(seed=7):
    return FaultPlan(profile="torn", seed=seed,
                     rules=(("put", FaultRule(torn=0.5)),))


def test_draws_are_a_pure_function_of_the_seed():
    a = FaultInjector(_torn_plan(), Simulator())
    b = FaultInjector(_torn_plan(), Simulator())
    seq_a = [a.draw_torn() for _ in range(256)]
    seq_b = [b.draw_torn() for _ in range(256)]
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)  # p=0.5 actually mixes


def test_reseeding_changes_the_fault_sequence():
    a = FaultInjector(_torn_plan(seed=7), Simulator())
    b = FaultInjector(_torn_plan(seed=8), Simulator())
    assert [a.draw_torn() for _ in range(256)] != \
           [b.draw_torn() for _ in range(256)]


def test_counts_track_injections():
    inj = FaultInjector(_torn_plan(), Simulator())
    hits = sum(inj.draw_torn() for _ in range(100))
    assert inj.counts[("put", "torn")] == hits
    assert inj.total_injected == hits


def test_scoped_restores_the_previous_scope():
    inj = FaultInjector(_torn_plan(), Simulator())
    assert inj._scope == "raw"
    with inj.scoped("ack"):
        assert inj._scope == "ack"
        with inj.scoped("put"):
            assert inj._scope == "put"
        assert inj._scope == "ack"
    assert inj._scope == "raw"
    with pytest.raises(ValueError):
        with inj.scoped("ack"):
            raise ValueError("boom")
    assert inj._scope == "raw"


def test_runtime_without_plan_has_no_fault_machinery():
    rt = Runtime(ABE, n_pes=8)
    assert rt.fault_injector is None
    assert rt.reliability is None
    assert rt.watchdog is None


def test_runtime_with_plan_wires_injector_and_reliability():
    rt = Runtime(ABE, n_pes=8, fault_plan=FaultPlan.named("drop"))
    assert rt.fault_injector is not None
    assert rt.fault_injector.fabric is rt.fabric
    assert rt.reliability == ReliabilityParams()
    assert rt.watchdog is not None
    with pytest.raises(RuntimeError):
        rt.fault_injector.attach(rt.fabric)


def test_runtime_with_reliability_only_arms_protocol_without_faults():
    params = ReliabilityParams(max_attempts=2)
    rt = Runtime(ABE, n_pes=8, reliability=params)
    assert rt.fault_injector is None
    assert rt.reliability is params
    assert rt.watchdog is not None
