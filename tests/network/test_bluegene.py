"""Unit tests for the Blue Gene/P (DCMF) fabric model."""

import pytest

from repro.network import BGPFabric, SURVEYOR, make_fabric
from repro.network.base import FabricError
from repro.sim import Simulator


def _fab(n_pes=64):
    sim = Simulator()
    return sim, make_fabric(sim, SURVEYOR, n_pes)


def _cross_node_pair(fab):
    topo = fab.topology
    for pe in range(topo.n_pes):
        if topo.node_of(pe) != topo.node_of(0):
            return 0, pe
    raise AssertionError("no cross-node pair")


def test_short_message_threshold():
    """Below 224 bytes a DCMF send takes the short path, on the wire
    and in the receive handler alike."""
    sim, fab = _fab()
    src, dst = _cross_node_pair(fab)
    p = SURVEYOR.net
    for nbytes, short in ((0, True), (223, True), (224, False)):
        before = dict(fab.trace.counters)
        fab.dcmf_send(src, dst, nbytes, sim.now, lambda: None)
        kind = "bgp.dcmf_short" if short else "bgp.dcmf_normal"
        assert fab.trace.counters[kind] == before.get(kind, 0) + 1
        assert fab.recv_handler_cost(nbytes) == (
            p.handler_short if short else p.handler_normal)


def test_short_path_cheaper_alpha():
    sim, fab = _fab()
    src, dst = _cross_node_pair(fab)
    times = {}
    for label, nbytes in (("short", 100), ("normal", 300)):
        s = Simulator()
        f = make_fabric(s, SURVEYOR, 64)
        got = []
        f.dcmf_send(src, dst, nbytes, 0.0, lambda: got.append(s.now))
        s.run()
        times[label] = got[0]
    p = SURVEYOR.net
    delta = times["normal"] - times["short"]
    assert delta == pytest.approx((p.alpha - p.alpha_short) + 200 * p.beta)


def test_recv_handler_cost_by_size():
    _, fab = _fab()
    p = SURVEYOR.net
    assert fab.recv_handler_cost(100) == p.handler_short
    assert fab.recv_handler_cost(10_000) == p.handler_normal


def test_ckdirect_put_carries_info_quadwords():
    """The put's wire bytes include the two-quad-word Info header."""
    src_dst = None
    times = {}
    for label, fn in (
        ("put", lambda f, s, d, cb: f.direct_put(s, d, 1000, 0.0, cb)),
        ("raw", lambda f, s, d, cb: f.dcmf_send(s, d, 1000, 0.0, cb)),
    ):
        s = Simulator()
        f = make_fabric(s, SURVEYOR, 64)
        src, dst = _cross_node_pair(f)
        got = []
        fn(f, src, dst, lambda: got.append(s.now))
        s.run()
        times[label] = got[0]
    p = SURVEYOR.net
    extra = times["put"] - times["raw"]
    assert extra == pytest.approx(
        p.info_qwords_ckdirect * p.quad_word * p.beta
    )


def test_hop_latency_increases_with_distance():
    sim, fab = _fab(256)
    topo = fab.topology
    near = far = None
    for pe in range(topo.n_pes):
        h = topo.node_hops(topo.node_of(0), topo.node_of(pe))
        if h == 1 and near is None:
            near = pe
        if h >= 3 and far is None:
            far = pe
    assert near is not None and far is not None

    def delivery(dst):
        s = Simulator()
        f = make_fabric(s, SURVEYOR, 256)
        got = []
        f.dcmf_send(0, dst, 100, 0.0, lambda: got.append(s.now))
        s.run()
        return got[0]

    p = SURVEYOR.net
    d = delivery(far) - delivery(near)
    far_hops = topo.node_hops(topo.node_of(0), topo.node_of(far))
    assert d == pytest.approx((far_hops - 1) * p.hop_latency)


def test_no_protocol_crossover_on_bgp():
    """Per-byte cost is one rate at all sizes (no rendezvous installed
    on Surveyor, §3)."""
    def t(nbytes):
        s = Simulator()
        f = make_fabric(s, SURVEYOR, 64)
        src, dst = _cross_node_pair(f)
        got = []
        f.dcmf_send(src, dst, nbytes, 0.0, lambda: got.append(s.now))
        s.run()
        return got[0]

    p = SURVEYOR.net
    slope1 = (t(20_000) - t(10_000)) / 10_000
    slope2 = (t(400_000) - t(200_000)) / 200_000
    assert slope1 == pytest.approx(p.beta)
    assert slope2 == pytest.approx(p.beta)


def test_wrong_params_type_rejected():
    import dataclasses

    from repro.network.params import IBParams
    from repro.network.topology import Torus3D

    broken = dataclasses.replace(SURVEYOR, net=IBParams())
    with pytest.raises(FabricError, match="BGPParams"):
        BGPFabric(Simulator(), Torus3D((2, 2, 2)), broken)
