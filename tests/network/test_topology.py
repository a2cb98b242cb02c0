"""Unit tests for topologies: fat-tree, 3D torus, graph-backed."""

import networkx as nx
import pytest

from repro.network.topology import (
    FatTree,
    GraphTopology,
    Topology,
    TopologyError,
    Torus3D,
    pes_on_node,
)


def test_fat_tree_counts():
    t = FatTree(n_nodes=4, cores_per_node=8)
    assert t.n_pes == 32
    assert t.node_of(0) == 0
    assert t.node_of(7) == 0
    assert t.node_of(8) == 1
    assert t.node_of(31) == 3


def test_fat_tree_hops():
    t = FatTree(4, 8)
    assert t.hops(0, 7) == 0  # same node
    assert t.hops(0, 8) == 1  # remote
    assert t.same_node(0, 7)
    assert not t.same_node(7, 8)


def test_pe_out_of_range():
    t = FatTree(2, 4)
    with pytest.raises(TopologyError):
        t.node_of(8)
    with pytest.raises(TopologyError):
        t.node_of(-1)


def test_same_node_range_checks_each_pe():
    t = FatTree(2, 4)
    assert t.same_node(4, 7)
    assert not t.same_node(3, 4)
    with pytest.raises(TopologyError, match="PE 8 "):
        t.same_node(0, 8)
    with pytest.raises(TopologyError, match="PE -1 "):
        t.same_node(-1, 0)
    with pytest.raises(TopologyError, match="PE 9 "):
        t.same_node(9, 8)


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
    assert t.hops(0, 0) == 0
    assert t.hops(0, 1) == 1  # +x neighbour
    assert t.hops(0, 3) == 1  # wraparound in x (distance min(3, 1))
    assert t.hops(0, 2) == 2


def test_torus_hops_symmetric():
    t = Torus3D((4, 3, 5), cores_per_node=2)
    for a, b in [(0, 17), (3, 29), (10, 41)]:
        assert t.hops(a, b) == t.hops(b, a)


def test_torus_hops_match_graph_shortest_paths():
    """Closed-form torus distance must equal BFS on the explicit graph."""
    dims = (4, 3, 3)
    closed = Torus3D(dims, cores_per_node=1)
    graph = GraphTopology.torus(dims, cores_per_node=1)
    for a in range(0, closed.n_nodes, 5):
        for b in range(closed.n_nodes):
            assert closed.hops(a, b) == graph.hops(a, b), (a, b)


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
                assert t.hops(a, b) == want, (a, b)


def test_torus_for_pes_capacity():
    for n in (7, 64, 100, 500):
        t = Torus3D.for_pes(n, cores_per_node=4)
        assert t.n_pes >= n


def test_torus_same_node_within_cores():
    t = Torus3D((2, 2, 2), cores_per_node=4)
    assert t.same_node(0, 3)
    assert not t.same_node(3, 4)
    assert t.hops(0, 3) == 0


def test_graph_topology_requires_connected():
    g = nx.Graph()
    g.add_edges_from([(0, 1), (2, 3)])
    with pytest.raises(TopologyError):
        GraphTopology(g)


def test_graph_topology_rejects_empty():
    with pytest.raises(TopologyError):
        GraphTopology(nx.Graph())


def test_graph_topology_hops_on_path():
    g = nx.path_graph(5)
    t = GraphTopology(g, cores_per_node=2)
    assert t.hops(0, 9) == 4  # node 0 -> node 4
    assert t.hops(0, 1) == 0  # same node


def test_pes_on_node():
    t = FatTree(3, 4)
    assert list(pes_on_node(t, 1)) == [4, 5, 6, 7]


def test_base_topology_abstract():
    t = Topology(2, 2)
    with pytest.raises(NotImplementedError):
        t.hops(0, 2)
