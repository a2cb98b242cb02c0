"""Unit tests for the simulated MPI world: sends, receives,
eager/rendezvous, unexpected messages, flavors."""

import pytest

from repro import ABE, SURVEYOR
from repro.mpi import ANY_SOURCE, MPIError, MPIWorld
from repro.mpi.flavors import regime_for, resolve_flavor, uses_rendezvous


def test_world_construction_validates():
    with pytest.raises(MPIError):
        MPIWorld(ABE, 0)


def test_spread_placement_cross_node():
    """Every world puts one rank on each node."""
    world = MPIWorld(ABE, 2)
    assert not world.fabric.topology.same_node(
        world.ranks[0].pe, world.ranks[1].pe
    )
    assert [r.pe for r in world.ranks] == [0, ABE.cores_per_node]


def test_unknown_flavor_rejected():
    with pytest.raises(MPIError, match="no MPI flavor"):
        MPIWorld(ABE, 2, flavor="OpenMPI")


def test_simple_send_recv():
    world = MPIWorld(ABE, 2)
    got = []
    world.ranks[1].irecv(lambda a: got.append((a.src, a.nbytes)), src=0)
    world.ranks[0].isend(1, 100)
    world.run()
    assert got == [(0, 100)]


def test_send_to_invalid_rank():
    world = MPIWorld(ABE, 2)
    with pytest.raises(MPIError, match="out of range"):
        world.ranks[0].isend(5, 100)


def test_unexpected_message_costs_extra():
    """A message arriving before its receive is posted pays the
    bounce-buffer copy when finally matched."""
    nbytes = 8000

    def completion(pre_post: bool) -> float:
        world = MPIWorld(ABE, 2)
        done = []
        # the rank cursor includes the matching + copy charges
        cb = lambda a: done.append(world.ranks[1].cursor)
        if pre_post:
            world.ranks[1].irecv(cb, src=0)
            world.ranks[0].isend(1, nbytes)
        else:
            world.ranks[0].isend(1, nbytes)
            world.run()  # message arrives unexpected
            world.ranks[1].irecv(cb, src=0)
        world.run()
        return done[0]

    t_pre = completion(True)
    t_late = completion(False)
    assert t_late > t_pre


def test_rendezvous_waits_for_recv():
    """Above the rendezvous threshold, data only moves once the receive
    posts; the completion reflects the post time."""
    world = MPIWorld(ABE, 2, flavor="MVAPICH")
    nbytes = 100_000
    assert uses_rendezvous(world.params, nbytes)
    got = []
    world.ranks[0].isend(1, nbytes)
    world.run()  # RTS announced, no data yet
    t_announce = world.sim.now
    world.ranks[1].irecv(lambda a: got.append(world.sim.now), src=0)
    world.run()
    assert got and got[0] > t_announce


def test_wildcard_recv():
    world = MPIWorld(ABE, 3)
    got = []
    world.ranks[2].irecv(lambda a: got.append(a.src), src=ANY_SOURCE)
    world.ranks[2].irecv(lambda a: got.append(a.src), src=ANY_SOURCE)
    world.ranks[0].isend(2, 10)
    world.ranks[1].isend(2, 10)
    world.run()
    assert sorted(got) == [0, 1]


def test_many_ranks_ring():
    n = 8
    world = MPIWorld(ABE, n)
    got = []
    for r in world.ranks:
        r.irecv(lambda a, rank=r.rank: got.append(rank), src=(r.rank - 1) % n)
    for r in world.ranks:
        r.isend((r.rank + 1) % n, 64)
    world.run()
    assert sorted(got) == list(range(n))


def test_regime_selection():
    p = resolve_flavor(ABE, "MVAPICH")
    i, fixed, beta, last = regime_for(p, 100)
    assert i == 0 and not last
    i, fixed, beta, last = regime_for(p, 100_000)
    assert last


def test_vmi_has_three_regimes():
    p = resolve_flavor(ABE, "MPICH-VMI")
    assert len(p.regimes) == 3
    assert regime_for(p, 50_000)[0] == 1


def test_bgp_default_flavor():
    world = MPIWorld(SURVEYOR, 2)
    assert world.params.name == "IBM-MPI"
    got = []
    world.ranks[1].irecv(lambda a: got.append(a.nbytes), src=0)
    world.ranks[0].isend(1, 5000)
    world.run()
    assert got == [5000]


def test_charge_outside_context_rejected():
    world = MPIWorld(ABE, 2)
    with pytest.raises(MPIError):
        world.ranks[0].charge(1e-6)


def test_rank_cursor_advances_with_work():
    world = MPIWorld(ABE, 2)
    done = []
    world.ranks[1].irecv(lambda a: done.append(world.ranks[1].cursor), src=0)
    world.ranks[0].isend(1, 1000)
    world.run()
    assert done[0] > 0
    assert world.ranks[1].busy_until >= done[0]
