"""Machine topologies.

A topology answers two questions the interconnect models ask:

* :meth:`Topology.hops` — how many network hops separate two PEs'
  nodes (used by the Blue Gene/P torus latency model; the fat-tree
  model folds switch traversal into its base latency, so it reports a
  constant).  :meth:`Topology.node_hops` answers the same for two node
  indices, for a caller that has already resolved them,
* :meth:`Topology.same_node` — whether two PEs share a node (intra-
  node transfers travel through shared memory, not the NIC).

PEs are numbered ``0 .. n_pes-1`` and packed onto nodes in rank order
(``cores_per_node`` consecutive PEs per node), matching how the paper's
jobs were laid out (e.g. "2 cores per node" for the OpenAtom Abe runs
maps PEs 0,1 to node 0, and so on).

The networkx-backed :class:`GraphTopology` exists for validation and
extension: tests cross-check the closed-form torus hop count against
shortest paths on an explicitly constructed torus graph.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import networkx as nx


class TopologyError(ValueError):
    """Raised for invalid topology construction or out-of-range PEs."""


class Topology:
    """Abstract base: a set of PEs packed onto nodes."""

    def __init__(self, n_nodes: int, cores_per_node: int) -> None:
        if n_nodes <= 0 or cores_per_node <= 0:
            raise TopologyError("n_nodes and cores_per_node must be positive")
        self.n_nodes = int(n_nodes)
        self.cores_per_node = int(cores_per_node)
        #: total PEs on this topology.
        self.n_pes = self.n_nodes * self.cores_per_node

    def node_of(self, pe: int) -> int:
        """Node index hosting a PE rank."""
        if not (0 <= pe < self.n_pes):
            raise TopologyError(f"PE {pe} out of range [0, {self.n_pes})")
        return pe // self.cores_per_node

    def same_node(self, a: int, b: int) -> bool:
        """True when both PEs share a node."""
        n = self.n_pes
        if not (0 <= a < n and 0 <= b < n):
            bad = b if 0 <= a < n else a
            raise TopologyError(f"PE {bad} out of range [0, {n})")
        cpn = self.cores_per_node
        return a // cpn == b // cpn

    def hops(self, a: int, b: int) -> int:
        """Network hops between the nodes hosting PEs ``a`` and ``b``."""
        return self.node_hops(self.node_of(a), self.node_of(b))

    def node_hops(self, na: int, nb: int) -> int:
        """Network hops between nodes ``na`` and ``nb``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} nodes={self.n_nodes} "
            f"cores/node={self.cores_per_node}>"
        )


class FatTree(Topology):
    """A full-bisection fat-tree (Abe-like Infiniband cluster).

    Switch traversal latency is size-independent and folded into the
    interconnect model's base latency, so any inter-node pair is one
    logical hop.  This matches the paper's treatment: it never reasons
    about IB path length, only about protocol costs.
    """

    def node_hops(self, na: int, nb: int) -> int:
        """Network hops between two nodes."""
        return 0 if na == nb else 1


class Torus3D(Topology):
    """A 3D torus (Blue Gene/P-like), nodes indexed in x-major order.

    Hop distance is the Manhattan distance with wraparound per
    dimension — the standard minimal-path metric on a torus.
    """

    def __init__(self, dims: Tuple[int, int, int], cores_per_node: int = 4) -> None:
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise TopologyError(f"dims must be three positive ints, got {dims!r}")
        self.dims = (int(dims[0]), int(dims[1]), int(dims[2]))
        super().__init__(self.dims[0] * self.dims[1] * self.dims[2], cores_per_node)
        #: hop counts of the node pairs asked about so far.
        self._hops: dict = {}

    @classmethod
    def for_pes(cls, n_pes: int, cores_per_node: int = 4) -> "Torus3D":
        """Build a roughly cubic torus with at least ``n_pes`` PEs.

        BG/P allocations come in fixed partition shapes; for simulation
        purposes a near-cube with enough nodes preserves the hop-count
        statistics that matter.
        """
        n_nodes = max(1, -(-n_pes // cores_per_node))  # ceil division
        x = max(1, round(n_nodes ** (1.0 / 3.0)))
        while x > 1 and n_nodes % x:
            x -= 1
        rest = n_nodes // x
        y = max(1, round(rest ** 0.5))
        while y > 1 and rest % y:
            y -= 1
        z = rest // y
        topo = cls((x, y, z), cores_per_node)
        if topo.n_pes < n_pes:  # remainder from ceil division edge cases
            topo = cls((x, y, z + 1), cores_per_node)
        return topo

    def coords(self, node: int) -> Tuple[int, int, int]:
        """(x, y, z) coordinates of a node."""
        X, Y, Z = self.dims
        if not (0 <= node < self.n_nodes):
            raise TopologyError(f"node {node} out of range")
        return (node % X, (node // X) % Y, node // (X * Y))

    def node_hops(self, na: int, nb: int) -> int:
        """Network hops between two nodes (memoised per pair)."""
        key = (na, nb)
        total = self._hops.get(key)
        if total is None:
            total = 0
            for ca, cb, dim in zip(self.coords(na), self.coords(nb), self.dims):
                d = abs(ca - cb)
                total += min(d, dim - d)
            self._hops[key] = total
        return total


class GraphTopology(Topology):
    """An arbitrary networkx graph of nodes; hops = shortest path.

    Heavyweight (all-pairs BFS on demand, cached) — intended for unit
    tests and custom-machine examples, not large performance runs.
    """

    def __init__(self, graph: nx.Graph, cores_per_node: int = 1) -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("graph has no nodes")
        if not nx.is_connected(graph):
            raise TopologyError("topology graph must be connected")
        self.graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
        super().__init__(self.graph.number_of_nodes(), cores_per_node)
        self._dist_cache: dict[int, dict[int, int]] = {}

    def node_hops(self, na: int, nb: int) -> int:
        """Network hops between two nodes."""
        if na == nb:
            return 0
        if na not in self._dist_cache:
            self._dist_cache[na] = nx.single_source_shortest_path_length(
                self.graph, na
            )
        return self._dist_cache[na][nb]

    @classmethod
    def torus(cls, dims: Tuple[int, int, int], cores_per_node: int = 1) -> "GraphTopology":
        """Explicit torus graph, used to validate :class:`Torus3D.hops`."""
        g = nx.grid_graph(dim=list(reversed(dims)), periodic=True)
        # networkx grid_graph(dim=[dz, dy, dx]) labels nodes (x, y, z)
        # with the *first* tuple slot ranging over the *last* dim entry;
        # relabel to the x-major integer order Torus3D uses.
        X, Y, Z = dims
        mapping = {}
        for node in g.nodes:
            x, y, z = node if isinstance(node, tuple) else (node, 0, 0)
            mapping[node] = x + X * (y + Y * z)
        g = nx.relabel_nodes(g, mapping)
        return cls(g, cores_per_node)


def pes_on_node(topo: Topology, node: int) -> Iterable[int]:
    """The PE ranks hosted by ``node``."""
    base = node * topo.cores_per_node
    return range(base, base + topo.cores_per_node)


def shard_nodes(topo: Topology, n_shards: int) -> "list[range]":
    """Partition the node ranks into ``n_shards`` contiguous blocks.

    Shard boundaries are *node*-aligned — no shard splits a node, so
    shared-memory (same-node) traffic never crosses shards — and blocks
    are contiguous in node-rank order.  On the fat tree contiguous node
    ranks are equivalent to any other grouping (all inter-node pairs are
    one hop); on the x-major torus they form slabs, which keeps
    nearest-neighbour traffic (the dominant pattern of the paper's
    apps, laid out block-wise over rank order) mostly shard-internal.

    Remainder nodes go to the leading shards; every shard receives at
    least one node (``n_shards`` must not exceed ``n_nodes``).
    """
    if not (1 <= n_shards <= topo.n_nodes):
        raise TopologyError(
            f"need 1 <= shards <= {topo.n_nodes} nodes, got {n_shards}"
        )
    base, rem = divmod(topo.n_nodes, n_shards)
    out = []
    start = 0
    for s in range(n_shards):
        count = base + (1 if s < rem else 0)
        out.append(range(start, start + count))
        start += count
    return out


def shard_of_node(topo: Topology, node: int, n_shards: int) -> int:
    """The shard owning ``node`` under :func:`shard_nodes` (closed form)."""
    base, rem = divmod(topo.n_nodes, n_shards)
    split = rem * (base + 1)
    if node < split:
        return node // (base + 1)
    return rem + (node - split) // base
