"""Property-based tests: reductions compute the right value for any
array size, PE count, and mapping; the runtime stays deterministic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ABE, Chare, CkCallback, Runtime
from repro.charm import CustomMap


class Summer(Chare):
    def go(self, cb):
        self.contribute(float(self.thisIndex[0]), "sum", cb)

    def go_min(self, cb):
        self.contribute(float(self.thisIndex[0]), "min", cb)


@given(
    st.integers(min_value=1, max_value=24),  # elements
    st.integers(min_value=1, max_value=12),  # PEs
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_sum_reduction_any_shape(n_elems, n_pes, rnd):
    placement = [rnd.randrange(n_pes) for _ in range(n_elems)]
    rt = Runtime(ABE, n_pes=n_pes)
    arr = rt.create_array(
        Summer, dims=(n_elems,),
        mapping=CustomMap(lambda idx, dims, n: placement[idx[0]]),
    )
    got = []
    arr.proxy.bcast("go", CkCallback.host(got.append))
    rt.run()
    assert got == [float(sum(range(n_elems)))]


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_min_reduction(n_elems, n_pes):
    rt = Runtime(ABE, n_pes=n_pes)
    arr = rt.create_array(Summer, dims=(n_elems,))
    got = []
    arr.proxy.bcast("go_min", CkCallback.host(got.append))
    rt.run()
    assert got == [0.0]


@given(st.integers(min_value=2, max_value=16))
@settings(max_examples=20, deadline=None)
def test_runtime_determinism(n_pes):
    """Identical programs on identical machines finish at identical
    simulated times."""

    def run_once():
        rt = Runtime(ABE, n_pes=n_pes)
        arr = rt.create_array(Summer, dims=(2 * n_pes,))
        got = []
        arr.proxy.bcast("go", CkCallback.host(lambda v: got.append(rt.now)))
        rt.run()
        return got[0]

    assert run_once() == run_once()
