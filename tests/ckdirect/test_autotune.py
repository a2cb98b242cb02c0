"""Unit tests for the persistent-channel advisor (§6 extension)."""

import numpy as np
import pytest

from repro import ABE, SURVEYOR, Chare, Runtime
from repro.charm import CustomMap, Payload
from repro.ckdirect.ext import ChannelAdvisor, FlowStats

from tests.ckdirect.channel_helpers import CROSS


class IterativeSender(Chare):
    """Sends the same-size payload to element 1 every round, plus one
    unstable-size flow and one tiny control flow."""

    def __init__(self):
        self.round = 0

    def go(self, rounds):
        self.round += 1
        self.proxy[1].stable(Payload.virtual(8192))
        self.proxy[1].wobbly(Payload.virtual(1000 + self.round * 100))
        self.proxy[1].tiny(Payload.virtual(16))
        if self.round < rounds:
            self.proxy[0].go(rounds)

    def stable(self, p):
        pass

    def wobbly(self, p):
        pass

    def tiny(self, p):
        pass


def _run_observed(machine, rounds=5):
    rt = Runtime(machine, n_pes=2 * machine.cores_per_node)
    arr = rt.create_array(IterativeSender, dims=(2,), mapping=CROSS)
    advisor = ChannelAdvisor(rt).attach()
    arr.proxy[0].go(rounds)
    rt.run()
    return advisor


def test_flow_stats_stability_tracking():
    st = FlowStats()
    for n in (100, 100, 100):
        st.observe(n)
    assert st.stable_run == 3
    st.observe(200)
    assert st.stable_run == 1
    assert st.count == 4
    assert st.total_bytes == 500


def test_stable_flow_becomes_candidate():
    advisor = _run_observed(ABE)
    cands = advisor.candidates()
    methods = {c.method for c in cands}
    assert "stable" in methods


def test_unstable_flow_excluded():
    advisor = _run_observed(ABE)
    assert all(c.method != "wobbly" for c in advisor.candidates())


def test_tiny_flow_excluded():
    advisor = _run_observed(ABE)
    assert all(c.method != "tiny" for c in advisor.candidates())


def test_candidate_economics():
    advisor = _run_observed(ABE, rounds=6)
    cand = next(c for c in advisor.candidates() if c.method == "stable")
    assert cand.nbytes == 8192
    assert cand.observations == 6
    assert cand.saving_per_message > 0
    assert cand.amortization_messages > 0
    assert np.isfinite(cand.amortization_messages)


def test_savings_larger_for_rendezvous_sizes():
    """On Infiniband a channel saves the per-message registration for
    rendezvous-sized flows, so the estimated saving jumps there."""
    rt = Runtime(ABE, n_pes=2)
    advisor = ChannelAdvisor(rt)
    small = advisor._saving_per_message(8_000)
    large = advisor._saving_per_message(100_000)
    assert large > small + ABE.net.reg_base * 0.9


def test_bgp_savings_include_rts_copy():
    rt = Runtime(SURVEYOR, n_pes=2)
    advisor = ChannelAdvisor(rt)
    s1 = advisor._saving_per_message(1_000)
    s2 = advisor._saving_per_message(20_000)
    assert s2 > s1  # the saturating receive copy grows with size


def test_attach_is_idempotent():
    rt = Runtime(ABE, n_pes=2)
    advisor = ChannelAdvisor(rt)
    assert advisor.attach() is advisor
    advisor.attach()  # must not wrap Runtime.send a second time
    arr = rt.create_array(IterativeSender, dims=(2,))
    arr.proxy[0].go(3)
    rt.run()
    stable = [v for k, v in advisor.flows.items() if k[3] == "stable"]
    assert [v.count for v in stable] == [3]  # each send observed once


def test_report_renders():
    advisor = _run_observed(ABE)
    text = advisor.report()
    assert "channel candidates" in text
    assert "stable" in text


def test_observed_app_unchanged():
    """Attaching the advisor must not change application timing."""
    def run(attach):
        rt = Runtime(ABE, n_pes=2 * ABE.cores_per_node)
        arr = rt.create_array(IterativeSender, dims=(2,), mapping=CROSS)
        if attach:
            ChannelAdvisor(rt).attach()
        arr.proxy[0].go(4)
        rt.run()
        return rt.now

    assert run(False) == run(True)
