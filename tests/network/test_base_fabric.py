"""Unit tests for the fabric base: latency math, NIC occupancy,
intra-node shortcut, validation."""

import pytest

from repro.network import ABE, SURVEYOR, make_fabric
from repro.network.base import FabricError
from repro.sim import Simulator
from repro.util.units import us


def _fabric(machine=ABE, n_pes=16):
    sim = Simulator()
    return sim, make_fabric(sim, machine, n_pes)


def test_uncontended_delivery_time():
    sim, fab = _fabric()
    got = []
    p = ABE.net
    # cross-node transfer: PEs 0 and 8 are on different Abe nodes
    fab.transfer(0, 8, 1000, start=0.0, pre=us(1.0), alpha=p.alpha,
                 beta=p.beta, cb=lambda: got.append(sim.now))
    sim.run()
    expected = us(1.0) + p.alpha + 1000 * p.beta
    assert got[0] == pytest.approx(expected)


def test_lat_extra_adds_to_delivery():
    sim, fab = _fabric()
    got = []
    p = ABE.net
    fab.transfer(0, 8, 1000, 0.0, 0.0, p.alpha, p.beta,
                 cb=lambda: got.append(sim.now), lat_extra=us(5.0))
    sim.run()
    assert got[0] == pytest.approx(p.alpha + 1000 * p.beta + us(5.0))


def test_tx_occupancy_serializes_same_node_senders():
    sim, fab = _fabric(n_pes=32)
    got = []
    p = ABE.net
    nbytes = 100_000
    # two transfers from the same node (PEs 0,1) to different nodes
    fab.transfer(0, 8, nbytes, 0.0, 0.0, p.alpha, p.beta,
                 cb=lambda: got.append(("a", sim.now)))
    fab.transfer(1, 24, nbytes, 0.0, 0.0, p.alpha, p.beta,
                 cb=lambda: got.append(("b", sim.now)))
    sim.run()
    times = dict(got)
    occ = nbytes * p.beta * p.occupancy_factor
    # second transfer waits for the first's injection occupancy
    assert times["b"] - times["a"] == pytest.approx(occ)


def test_rx_occupancy_serializes_incast():
    sim, fab = _fabric(n_pes=32)
    got = []
    p = ABE.net
    nbytes = 100_000
    # two different source nodes target the same destination node
    fab.transfer(8, 0, nbytes, 0.0, 0.0, p.alpha, p.beta,
                 cb=lambda: got.append(sim.now))
    fab.transfer(16, 0, nbytes, 0.0, 0.0, p.alpha, p.beta,
                 cb=lambda: got.append(sim.now))
    sim.run()
    occ = nbytes * p.beta * p.occupancy_factor
    assert got[1] - got[0] == pytest.approx(occ)


def test_same_node_uses_shared_memory_path():
    sim, fab = _fabric()
    got = []
    fab.transfer(0, 1, 10_000, 0.0, 0.0, ABE.net.alpha, ABE.net.beta,
                 cb=lambda: got.append(sim.now))
    sim.run()
    expected = ABE.net.shm_alpha + 10_000 * ABE.net.shm_beta
    assert got[0] == pytest.approx(expected)
    assert fab.trace.counter("net.shm_transfers") == 1
    assert fab.trace.counter("net.transfers") == 0


def test_self_send_rejected():
    sim, fab = _fabric()
    with pytest.raises(FabricError):
        fab.transfer(3, 3, 100, 0.0, 0.0, 0.0, 0.0, lambda: None)


def test_start_in_past_rejected():
    sim, fab = _fabric()
    fab.transfer(0, 8, 10, 0.0, 0.0, us(1), 0.0, lambda: None)
    sim.run()
    with pytest.raises(FabricError):
        fab.transfer(0, 8, 10, sim.now - us(1), 0.0, us(1), 0.0, lambda: None)


def test_negative_bytes_rejected():
    sim, fab = _fabric()
    with pytest.raises(FabricError):
        fab.transfer(0, 8, -1, 0.0, 0.0, 0.0, 0.0, lambda: None)


def test_bgp_hop_latency_counts():
    sim = Simulator()
    fab = make_fabric(sim, SURVEYOR, 64)
    topo = fab.topology
    p = SURVEYOR.net
    # pick two PEs several hops apart
    far = None
    for pe in range(topo.n_pes):
        if topo.node_hops(topo.node_of(0), topo.node_of(pe)) >= 2:
            far = pe
            break
    assert far is not None
    got = []
    fab.transfer(0, far, 100, 0.0, 0.0, p.alpha, p.beta,
                 cb=lambda: got.append(sim.now))
    sim.run()
    hops = topo.node_hops(topo.node_of(0), topo.node_of(far))
    expected = p.alpha + hops * p.hop_latency + 100 * p.beta
    assert got[0] == pytest.approx(expected)


def test_packets_helper():
    from repro.network.base import Fabric

    assert Fabric.packets(0, 4096) == 1
    assert Fabric.packets(1, 4096) == 1
    assert Fabric.packets(4096, 4096) == 1
    assert Fabric.packets(4097, 4096) == 2
