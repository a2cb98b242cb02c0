"""Unit tests for machine presets and the interpolation helper."""

import pytest

from repro.network.params import (
    ABE,
    IBM_MPI_BUFFERING_TABLE,
    MACHINES,
    SURVEYOR,
    T3,
    interp_table,
)


def test_presets_registered():
    assert set(MACHINES) == {"Abe", "T3", "Surveyor"}
    assert MACHINES["Abe"] is ABE


def test_machine_kinds():
    assert ABE.kind == "ib"
    assert T3.kind == "ib"
    assert SURVEYOR.kind == "bgp"


def test_cores_per_node_match_paper():
    assert ABE.cores_per_node == 8  # dual-socket quad-core Clovertown
    assert T3.cores_per_node == 4  # dual-socket dual-core Woodcrest
    assert SURVEYOR.cores_per_node == 4  # quad-core PPC450


def test_header_is_80_bytes():
    for m in MACHINES.values():
        assert m.charm.header_bytes == 80  # the paper's "~80 bytes"


def test_bgp_short_threshold_is_224():
    assert SURVEYOR.net.short_max == 224  # the paper's DCMF threshold


def test_bgp_info_is_two_quadwords():
    assert SURVEYOR.net.info_qwords_ckdirect == 2


def test_topology_factories():
    t = ABE.make_topology(32)
    assert t.n_pes == 32
    t2 = SURVEYOR.make_topology(100)
    assert t2.n_pes >= 100


def test_mpi_flavors_present():
    assert set(ABE.mpi_flavors) == {"MVAPICH", "MPICH-VMI"}
    assert set(SURVEYOR.mpi_flavors) == {"IBM-MPI"}
    assert ABE.default_mpi == "MVAPICH"


def test_params_frozen():
    with pytest.raises(Exception):
        ABE.charm.header_bytes = 100


def test_interp_table_endpoints_and_midpoints():
    table = ((0, 0.0), (10, 10.0), (20, 0.0))
    assert interp_table(table, -5) == 0.0
    assert interp_table(table, 0) == 0.0
    assert interp_table(table, 5) == pytest.approx(5.0)
    assert interp_table(table, 10) == pytest.approx(10.0)
    assert interp_table(table, 15) == pytest.approx(5.0)
    assert interp_table(table, 100) == 0.0


def test_ibm_buffering_table_shape():
    xs = [x for x, _ in IBM_MPI_BUFFERING_TABLE]
    assert xs == sorted(xs)
    # the bump the paper surmises: rises to a peak near 5KB, decays
    peak = max(y for _, y in IBM_MPI_BUFFERING_TABLE)
    assert interp_table(IBM_MPI_BUFFERING_TABLE, 5_000) == pytest.approx(peak)
    assert interp_table(IBM_MPI_BUFFERING_TABLE, 100) == 0.0


def test_occupancy_factors_physical():
    assert 0 < ABE.net.occupancy_factor <= 1.0
    assert 0 < SURVEYOR.net.occupancy_factor < 0.2  # six torus links
