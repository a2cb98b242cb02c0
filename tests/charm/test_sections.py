"""Unit tests for array sections (sub-array multicast + reduction)."""

import pytest

from repro import ABE, Chare, CkCallback, Runtime
from repro.charm import CharmError
from repro.charm.errors import ContextError
from repro.charm.section import binomial_children, binomial_parent


class Member(Chare):
    def __init__(self):
        self.pings = 0

    def ping(self):
        self.pings += 1

    def contrib(self, section, cb):
        self.contribute(float(self.thisIndex[0]), "sum", cb, section=section)

    def contrib_array(self, cb):
        self.contribute(1.0, "sum", cb)

    def bad_contrib(self, section, cb):
        self.contribute(1.0, "sum", cb, section=section)


def test_binomial_helpers():
    assert binomial_parent(0) is None
    assert binomial_parent(5) == 4
    assert binomial_parent(6) == 4
    assert binomial_children(0, 8) == [1, 2, 4]
    assert binomial_children(4, 8) == [5, 6]
    assert binomial_children(6, 8) == [7]
    assert binomial_children(7, 8) == []


def test_section_construction_normalizes_and_dedupes():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Member, dims=(8,))
    sec = arr.section([0, 2, (2,), 4])
    assert sec.indices == ((0,), (2,), (4,))
    assert sec.size == 3
    assert sec.contains(2)
    assert not sec.contains(1)


def test_empty_section_rejected():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Member, dims=(4,))
    with pytest.raises(CharmError, match="at least one"):
        arr.section([])


def test_section_multicast_hits_members_only():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Member, dims=(8,))
    sec = arr.section([1, 3, 5])
    sec.bcast("ping")
    rt.run()
    for i in range(8):
        assert arr.element(i).pings == (1 if i in (1, 3, 5) else 0)


def test_section_reduction():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Member, dims=(8,))
    sec = arr.section([2, 4, 6])
    got = []
    sec.bcast("contrib", sec, CkCallback.host(got.append))
    rt.run()
    assert got == [2.0 + 4.0 + 6.0]


def test_section_barrier_waits_for_all_members():
    class Slow(Chare):
        def go(self, section, cb):
            if self.thisIndex[0] == 6:
                self.charge(3e-3)
            self.contribute(callback=cb, section=section)

    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Slow, dims=(8,))
    sec = arr.section([2, 6])
    t = []
    sec.bcast("go", sec, CkCallback.host(lambda v: t.append(rt.now)))
    rt.run()
    assert t[0] >= 3e-3


def test_section_and_array_epochs_independent():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Member, dims=(8,))
    sec = arr.section(list(range(8)))
    got = []
    # array-wide reduction and (full) section reduction interleave
    arr.proxy.bcast("contrib_array", CkCallback.host(lambda v: got.append(("arr", v))))
    sec.bcast("contrib", sec, CkCallback.host(lambda v: got.append(("sec", v))))
    rt.run()
    assert ("arr", 8.0) in got
    assert ("sec", float(sum(range(8)))) in got


def test_non_member_contribution_rejected():
    rt = Runtime(ABE, n_pes=2)
    arr = rt.create_array(Member, dims=(4,))
    sec = arr.section([0, 1])
    arr.proxy[3].bad_contrib(sec, CkCallback.ignore())
    with pytest.raises(ContextError, match="not a\n?.*member|not a member"):
        rt.run()


def test_foreign_array_section_rejected():
    rt = Runtime(ABE, n_pes=2)
    a1 = rt.create_array(Member, dims=(2,))
    a2 = rt.create_array(Member, dims=(2,))
    sec2 = a2.section([0])
    a1.proxy[0].bad_contrib(sec2, CkCallback.ignore())
    with pytest.raises(ContextError, match="different array"):
        rt.run()


def test_section_on_sparse_pes():
    from repro.charm import CustomMap

    rt = Runtime(ABE, n_pes=8)
    arr = rt.create_array(
        Member, dims=(6,),
        mapping=CustomMap(lambda idx, dims, n: idx[0]),
    )
    sec = arr.section([1, 3, 5])
    assert sec.home_pes == [1, 3, 5]
    sec.bcast("ping")
    rt.run()
    assert all(arr.element(i).pings == 1 for i in (1, 3, 5))


def test_section_tree_consistency():
    rt = Runtime(ABE, n_pes=16)
    arr = rt.create_array(Member, dims=(16,))
    sec = arr.section(list(range(0, 16, 2)))
    root = sec.home_pes[0]
    assert sec.tree_parent(root) is None
    children = [c for pe in sec.home_pes for c in sec.tree_children(pe)]
    assert sorted(children) == sorted(p for p in sec.home_pes if p != root)


def test_unknown_collective_id():
    rt = Runtime(ABE, n_pes=2)
    with pytest.raises(CharmError, match="unknown collective"):
        rt.collective(999)
