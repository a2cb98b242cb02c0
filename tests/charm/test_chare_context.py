"""Unit tests for chare execution-context guards and helpers."""

import pytest

from repro import ABE, Chare, Runtime
from repro.charm.errors import ContextError


class Ctx(Chare):
    def __init__(self):
        self.seen = []

    def probe(self):
        self.seen.append((self.my_pe, self.thisIndex[0], self.now))

    def pack_something(self, nbytes):
        t0 = self.now
        self.charge_pack(nbytes)
        self.seen.append(self.now - t0)


def test_my_pe_and_index1d():
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(Ctx, dims=(4,))
    arr.proxy[3].probe()
    rt.run()
    pe, idx, t = arr.element(3).seen[0]
    assert idx == 3
    assert pe == arr.pe_of(3)
    assert t > 0


def test_charge_pack_costs_scale_with_bytes():
    rt = Runtime(ABE, n_pes=1)
    arr = rt.create_array(Ctx, dims=(1,))
    arr.proxy[0].pack_something(1000)
    arr.proxy[0].pack_something(100_000)
    rt.run()
    small, big = arr.element(0).seen
    charm = ABE.charm
    assert small == pytest.approx(charm.copy_base + 1000 * charm.copy_per_byte)
    assert big > small


def test_charge_pack_zero_is_free():
    rt = Runtime(ABE, n_pes=1)
    arr = rt.create_array(Ctx, dims=(1,))
    arr.proxy[0].pack_something(0)
    rt.run()
    assert arr.element(0).seen[0] == 0.0


def test_context_guard_rejects_foreign_pe():
    """A chare driven outside its own PE context must refuse to charge
    (catching accidental cross-chare calls in user code)."""
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(Ctx, dims=(2,))

    class Sneaky(Chare):
        def poke(self, other):
            other.charge(1e-6)  # not my context

    bad = rt.create_array(Sneaky, dims=(1,),)
    victim = arr.element(1) if arr.pe_of(1) != bad.pe_of(0) else arr.element(0)
    bad.proxy[0].poke(victim)
    with pytest.raises(ContextError):
        rt.run()


def test_contribute_outside_context_rejected():
    rt = Runtime(ABE, n_pes=1)
    arr = rt.create_array(Ctx, dims=(1,))
    with pytest.raises(ContextError):
        arr.element(0).contribute()


def test_negative_charge_rejected():
    rt = Runtime(ABE, n_pes=1)

    class Neg(Chare):
        def go(self):
            self.charge(-1.0)

    arr = rt.create_array(Neg, dims=(1,))
    arr.proxy[0].go()
    with pytest.raises(ContextError):
        rt.run()


def test_entity_now_follows_the_simulator():
    from repro.sim import Entity, Simulator

    sim = Simulator()
    e = Entity(sim, name="thing")
    got = []
    sim.schedule(2e-6, got.append, "x")
    sim.run()
    assert got == ["x"]
    assert e.now == pytest.approx(2e-6)
