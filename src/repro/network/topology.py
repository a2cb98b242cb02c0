"""Machine topologies.

A topology answers two questions the interconnect models ask:

* :meth:`Topology.node_of` — which node hosts a PE (two PEs on one
  node exchange data through shared memory, not the NIC),
* :meth:`Topology.node_hops` — how many network hops separate two
  nodes (used by the Blue Gene/P torus latency model; the fat-tree
  model folds switch traversal into its base latency, so it reports a
  constant).

PEs are numbered ``0 .. n_pes-1`` and packed onto nodes in rank order
(``cores_per_node`` consecutive PEs per node), matching how the paper's
jobs were laid out (e.g. "2 cores per node" for the OpenAtom Abe runs
maps PEs 0,1 to node 0, and so on).
"""

from __future__ import annotations

from typing import Tuple


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
