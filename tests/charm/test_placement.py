"""Placement is fixed when an array is built, and routing follows it.

A chare array asks its mapping once per element, at creation, and
binds the element to that PE.  Every later lookup (point sends,
broadcasts, reductions, callbacks, sections, ``pe_of``) reads the
bound PE; none consults the mapping again.
"""

import itertools

import numpy as np
import pytest

from repro import ABE, Chare, CkCallback, Runtime
from repro.charm import BlockMap, CustomMap, RoundRobinMap


class Counting(CustomMap):
    """A custom map that records every question asked of it."""

    def __init__(self, fn=lambda idx, dims, n: sum(idx) % n):
        self.calls = []

        def counted(idx, dims, n):
            self.calls.append(idx)
            return fn(idx, dims, n)

        super().__init__(counted)


class Worker(Chare):
    def __init__(self):
        self.log = []

    def hit(self, *args):
        self.log.append((self.rt.current_pe.rank, args))

    def work(self):
        self.charge(1e-6)  # raises ContextError off the bound PE
        self.log.append((self.rt.current_pe.rank, "work"))

    def relay(self, index):
        self.proxy[index].hit("relayed")

    def fire(self, cb):
        cb.invoke(self.rt, "cb")

    def join(self, cb):
        self.contribute(1.0, "sum", cb)

    def join_section(self, section, cb):
        self.contribute(1.0, "sum", cb, section=section)


def test_custom_map_runs_once_per_element():
    rt = Runtime(ABE, n_pes=4)
    cmap = Counting()
    arr = rt.create_array(Worker, dims=(3, 4), mapping=cmap)
    every = list(itertools.product(range(3), range(4)))
    assert cmap.calls == every

    # Point sends from host and from entry methods, in every index form.
    arr.proxy[(1, 2)].hit("tuple")
    arr.proxy[[2, 3]].hit("list")
    arr.proxy[np.array([0, 1])].hit("array")
    rt.send(arr, (np.int64(2), 0), "hit", ("numpy",))
    arr.proxy[(0, 0)].relay((2, 2))
    # Broadcasts, reductions into a send callback, a callback built by
    # index, a section with its multicast, reduction and membership.
    arr.proxy.bcast("hit", "bcast")
    cb = CkCallback.send(arr, [1, 1], "hit")
    arr.proxy[(0, 3)].fire(cb)
    arr.proxy.bcast("join", cb)
    section = arr.section([(0, 0), [1, 1], np.array([2, 3])])
    assert section.contains((1, 1)) and not section.contains([0, 1])
    section.bcast("hit", "section")
    for idx in section.indices:
        arr.proxy[idx].join_section(section, cb)
    for idx in every:
        assert arr.pe_of(idx) == arr.elements[idx].my_pe
    rt.run()

    assert cmap.calls == every
    got = {("tuple",): [(1, 2)], ("list",): [(2, 3)], ("array",): [(0, 1)],
           ("numpy",): [(2, 0)], ("relayed",): [(2, 2)], ("cb",): [(1, 1)],
           ("bcast",): every, ("section",): [(0, 0), (1, 1), (2, 3)],
           (12.0,): [(1, 1)], (3.0,): [(1, 1)]}
    expected = {idx: [] for idx in every}
    for args, targets in got.items():
        for idx in targets:
            expected[idx].append((arr.elements[idx].my_pe, args))
    for idx in every:
        assert sorted(arr.elements[idx].log, key=repr) == \
            sorted(expected[idx], key=repr)


@pytest.mark.parametrize("mapping", [BlockMap, RoundRobinMap, Counting],
                         ids=lambda m: m.__name__)
@pytest.mark.parametrize("dims", [(7,), (3, 4), (2, 3, 2), (2, 2, 3, 2)],
                         ids=lambda d: f"{len(d)}d")
def test_lookups_agree_with_construction_placement(mapping, dims):
    n_pes = 5
    rt = Runtime(ABE, n_pes=n_pes)
    m = mapping()
    arr = rt.create_array(Worker, dims=dims, mapping=m)
    assert arr.size == len(arr.elements) == int(np.prod(dims))
    for idx in itertools.product(*(range(d) for d in dims)):
        elem = arr.elements[idx]
        home = elem.my_pe
        assert idx in arr.local_elements[home]
        assert home == mapping().pe_for(idx, dims, n_pes)
        for form in (idx, list(idx), np.array(idx),
                     tuple(np.int64(i) for i in idx)):
            assert arr.pe_of(form) == home
            assert arr.normalize_index(form) == idx
            assert arr.element(form) is elem
        if len(dims) == 1:
            assert arr.pe_of(idx[0]) == home
            assert arr.element(np.int64(idx[0])) is elem


class Ring(Chare):
    """Takes (and uses) a proxy to the next element in its constructor,
    before that element exists."""

    def __init__(self, n):
        nxt = (self.index1d + 1) % n
        self.right = self.proxy[nxt]
        self.right_pe = self._array.pe_of(nxt)
        self.proxy[nxt].greet(self.index1d)
        self.got = []

    def greet(self, frm):
        self.got.append(("greet", frm))

    def pass_on(self):
        self.right.greet("passed")


def test_constructor_proxy_to_unbuilt_neighbour():
    rt = Runtime(ABE, n_pes=3)
    arr = rt.create_array(Ring, dims=(6,), ctor_args=(6,))
    for i in range(6):
        elem = arr.element(i)
        assert elem.right.index == ((i + 1) % 6,)
        assert elem.right_pe == arr.element((i + 1) % 6).my_pe
        arr.proxy[i].pass_on()
    rt.run()
    for i in range(6):
        assert sorted(arr.element(i).got, key=str) == sorted(
            [("greet", (i - 1) % 6), ("greet", "passed")], key=str)


def test_sends_follow_bound_pe_when_map_changes_its_answer():
    answers = {"shift": 0}
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(
        Worker, dims=(4,),
        mapping=CustomMap(lambda idx, dims, n: (idx[0] + answers["shift"]) % n),
    )
    answers["shift"] = 1  # the map now disagrees with construction
    assert arr.element(1).my_pe == 1
    assert arr.pe_of(1) == 1
    arr.proxy[1].work()
    arr.proxy[(0,)].relay(1)
    rt.run()
    assert arr.element(1).log == [(1, "work"), (1, ("relayed",))]
