"""Interconnect models: topologies, fabrics, calibrated machine presets."""

from .base import Fabric, FabricError
from .bluegene import BGPFabric
from .infiniband import PROTOCOLS, InfinibandFabric
from .params import (
    ABE,
    BGPParams,
    CharmParams,
    CkDirectParams,
    ComputeParams,
    IBM_MPI_BUFFERING_TABLE,
    IBParams,
    MACHINES,
    MPIFlavorParams,
    MachineParams,
    SURVEYOR,
    T3,
    interp_table,
)
from .topology import FatTree, Topology, TopologyError, Torus3D

__all__ = [
    "Fabric",
    "FabricError",
    "InfinibandFabric",
    "BGPFabric",
    "PROTOCOLS",
    "Topology",
    "TopologyError",
    "FatTree",
    "Torus3D",
    "MachineParams",
    "CharmParams",
    "CkDirectParams",
    "ComputeParams",
    "IBParams",
    "BGPParams",
    "MPIFlavorParams",
    "ABE",
    "T3",
    "SURVEYOR",
    "MACHINES",
    "IBM_MPI_BUFFERING_TABLE",
    "interp_table",
]


def make_fabric(sim, machine: MachineParams, n_pes: int, trace=None) -> Fabric:
    """Instantiate the right fabric for a machine preset."""
    topo = machine.make_topology(n_pes)
    cls = InfinibandFabric if machine.kind == "ib" else BGPFabric
    return cls(sim, topo, machine, trace)
