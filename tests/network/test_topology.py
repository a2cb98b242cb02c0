"""Unit tests for topologies: fat-tree and 3D torus."""

from collections import deque

import pytest

from repro.network.topology import (
    FatTree,
    Topology,
    TopologyError,
    Torus3D,
)


def _hops(t, a, b):
    """Hops between the nodes hosting PEs ``a`` and ``b``."""
    return t.node_hops(t.node_of(a), t.node_of(b))


def test_fat_tree_counts():
    t = FatTree(n_nodes=4, cores_per_node=8)
    assert t.n_pes == 32
    assert t.node_of(0) == 0
    assert t.node_of(7) == 0
    assert t.node_of(8) == 1
    assert t.node_of(31) == 3


def test_fat_tree_hops():
    t = FatTree(4, 8)
    assert _hops(t, 0, 7) == 0  # same node
    assert _hops(t, 0, 8) == 1  # remote
    assert t.node_of(0) == t.node_of(7)
    assert t.node_of(7) != t.node_of(8)


def test_pe_out_of_range():
    t = FatTree(2, 4)
    with pytest.raises(TopologyError):
        t.node_of(8)
    with pytest.raises(TopologyError):
        t.node_of(-1)


def test_invalid_construction():
    with pytest.raises(TopologyError):
        FatTree(0, 4)
    with pytest.raises(TopologyError):
        Torus3D((2, 0, 2))


def test_torus_coords_roundtrip():
    t = Torus3D((4, 3, 2), cores_per_node=1)
    seen = set()
    for node in range(t.n_nodes):
        c = t.coords(node)
        assert 0 <= c[0] < 4 and 0 <= c[1] < 3 and 0 <= c[2] < 2
        seen.add(c)
    assert len(seen) == 24


def test_torus_hops_basic():
    t = Torus3D((4, 4, 4), cores_per_node=1)
    assert _hops(t, 0, 0) == 0
    assert _hops(t, 0, 1) == 1  # +x neighbour
    assert _hops(t, 0, 3) == 1  # wraparound in x (distance min(3, 1))
    assert _hops(t, 0, 2) == 2


def test_torus_hops_symmetric():
    t = Torus3D((4, 3, 5), cores_per_node=2)
    for a, b in [(0, 17), (3, 29), (10, 41)]:
        assert _hops(t, a, b) == _hops(t, b, a)


def test_torus_hops_match_graph_shortest_paths():
    """Closed-form torus distance must equal breadth-first search over
    the explicit wraparound six-neighbour adjacency, from every node."""
    dims = (4, 3, 3)
    X, Y, Z = dims
    closed = Torus3D(dims, cores_per_node=1)
    steps = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))

    def neighbours(node):
        x, y, z = node % X, (node // X) % Y, node // (X * Y)
        for dx, dy, dz in steps:
            yield (x + dx) % X + X * ((y + dy) % Y + Y * ((z + dz) % Z))

    for a in range(closed.n_nodes):
        dist = {a: 0}
        frontier = deque([a])
        while frontier:
            node = frontier.popleft()
            for nb in neighbours(node):
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    frontier.append(nb)
        assert len(dist) == closed.n_nodes
        for b in range(closed.n_nodes):
            assert closed.node_hops(a, b) == dist[b], (a, b)


def test_torus_hops_repeat_with_cores_per_node():
    """Asked again (and across PEs of the same nodes), a pair's hop
    count equals the closed form on its node coordinates."""
    dims = (4, 3, 2)
    t = Torus3D(dims, cores_per_node=2)
    for _ in range(2):
        for a in range(t.n_pes):
            for b in range(t.n_pes):
                ca, cb = t.coords(a // 2), t.coords(b // 2)
                want = sum(min(abs(x - y), d - abs(x - y))
                           for x, y, d in zip(ca, cb, dims))
                assert _hops(t, a, b) == want, (a, b)


def test_torus_for_pes_capacity():
    for n in (7, 64, 100, 500):
        t = Torus3D.for_pes(n, cores_per_node=4)
        assert t.n_pes >= n


def test_torus_same_node_within_cores():
    t = Torus3D((2, 2, 2), cores_per_node=4)
    assert t.node_of(0) == t.node_of(3)
    assert t.node_of(3) != t.node_of(4)
    assert _hops(t, 0, 3) == 0


def test_base_topology_abstract():
    t = Topology(2, 2)
    with pytest.raises(NotImplementedError):
        t.node_hops(0, 1)
