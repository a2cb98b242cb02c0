"""Unit tests for tracing and running statistics."""

import math

import numpy as np
import pytest

from repro.sim.trace import RunningStats, Trace


def test_running_stats_basic():
    st = RunningStats()
    for x in [1.0, 2.0, 3.0, 4.0]:
        st.add(x)
    assert st.n == 4
    assert st.mean == pytest.approx(2.5)
    assert st.min == 1.0
    assert st.max == 4.0
    assert st.total == pytest.approx(10.0)
    assert st.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))


def test_running_stats_matches_numpy_on_random_data():
    rng = np.random.default_rng(0)
    data = rng.normal(5.0, 2.0, size=1000)
    st = RunningStats()
    for x in data:
        st.add(float(x))
    assert st.mean == pytest.approx(np.mean(data))
    assert st.stdev == pytest.approx(np.std(data, ddof=1))


def test_running_stats_empty():
    st = RunningStats()
    assert st.n == 0
    assert st.mean == 0.0
    assert st.variance == 0.0


def test_running_stats_single_sample():
    st = RunningStats()
    st.add(7.0)
    assert st.variance == 0.0
    assert st.stdev == 0.0


def test_merge_equivalent_to_combined():
    rng = np.random.default_rng(1)
    a, b = rng.random(100), rng.random(57)
    sa, sb, sc = RunningStats(), RunningStats(), RunningStats()
    for x in a:
        sa.add(float(x))
        sc.add(float(x))
    for x in b:
        sb.add(float(x))
        sc.add(float(x))
    sa.merge(sb)
    assert sa.n == sc.n
    assert sa.mean == pytest.approx(sc.mean)
    assert sa.variance == pytest.approx(sc.variance)
    assert sa.min == sc.min
    assert sa.max == sc.max


def test_merge_with_empty_sides():
    st = RunningStats()
    st.add(1.0)
    empty = RunningStats()
    st.merge(empty)
    assert st.n == 1
    empty2 = RunningStats()
    empty2.merge(st)
    assert empty2.n == 1
    assert empty2.mean == 1.0


def test_trace_counters():
    tr = Trace()
    tr.count("x")
    tr.count("x", 4)
    assert tr.counter("x") == 5
    assert tr.counter("missing") == 0


def test_trace_samples_stats_only_by_default():
    """A sampled value folds into its running statistic; no raw
    series is kept."""
    tr = Trace()
    tr.sample("lat", 1.0)
    tr.sample("lat", 3.0)
    assert tr.stat("lat").n == 2
    assert tr.stat("lat").mean == 2.0
    assert not hasattr(tr, "samples")


def test_trace_summary_shape():
    tr = Trace()
    tr.count("msgs", 3)
    tr.sample("lat", 2.0)
    s = tr.summary()
    assert s["counters"]["msgs"] == 3
    assert s["stats"]["lat"]["n"] == 1
    assert s["stats"]["lat"]["mean"] == 2.0
