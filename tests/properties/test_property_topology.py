"""Property-based tests: torus distance is a metric; the block
mapping is total, in-range and balanced."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.charm.mapping import BlockMap
from repro.network.topology import Torus3D

dims_st = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)


@given(dims_st, st.data())
@settings(max_examples=60, deadline=None)
def test_torus_distance_is_a_metric(dims, data):
    t = Torus3D(dims, cores_per_node=1)
    n = t.n_nodes
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    # identity, symmetry, triangle inequality
    hops = t.node_hops
    assert hops(a, a) == 0
    assert hops(a, b) == hops(b, a)
    assert hops(a, c) <= hops(a, b) + hops(b, c)
    # diameter bound: sum of floor(dim/2)
    assert hops(a, b) <= sum(d // 2 for d in dims)


@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=60, deadline=None)
def test_mappings_total_and_balanced(n_elems, n_pes):
    mapping = BlockMap()
    pes = [mapping.pe_for((i,), (n_elems,), n_pes) for i in range(n_elems)]
    assert all(0 <= p < n_pes for p in pes)
    counts = Counter(pes)
    # a fair partition: per-PE loads differ by at most one
    if n_elems >= n_pes:
        assert max(counts.values()) - min(counts.values()) <= 1
