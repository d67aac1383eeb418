"""Cross-validation: the fast engine against the event-heap reference.

The fast engine relies on a reduction argument (service time independent of
dispatch instant => one pass in arrival order is exact).  These property
tests assert both engines produce identical per-query latencies on random
workloads and pools, including with service-time noise.  Every check runs
the fast engine under each dispatch policy (the native loop under
``auto``, the Python heap loop under ``python``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import InferenceServingSimulator, native_available
from repro.simulator.events import EventHeapSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.workload.trace import QueryTrace
from tests.conftest import make_toy_model


DISPATCHES = InferenceServingSimulator.DISPATCH_POLICIES


def fast_sim(model, **kwargs) -> InferenceServingSimulator:
    """A fast-engine simulator with the whole-result memo disabled.

    Equivalence tests run several same-(model, trace, pool) simulations
    and compare them; under the default shared memo the later runs would
    be cache hits of the first, making the comparisons vacuous.
    """
    return InferenceServingSimulator(
        model, result_cache=SimulationResultCache(maxsize=0), **kwargs
    )


def random_trace(seed: int, n: int) -> QueryTrace:
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / 300.0, size=n))
    batches = np.clip(
        np.rint(rng.lognormal(np.log(30.0), 0.8, size=n)), 1, 256
    ).astype(np.int64)
    return QueryTrace(arrivals, batches, rate_qps=300.0, seed=seed)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=300),
    g=st.integers(min_value=0, max_value=3),
    t=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_engines_agree_on_random_workloads(seed, n, g, t):
    if g + t == 0:
        g = 1
    model = make_toy_model()
    trace = random_trace(seed, n)
    pool = PoolConfiguration(("g4dn", "t3"), (g, t))
    ref = EventHeapSimulator(model).simulate(trace, pool)
    for dispatch in DISPATCHES:
        fast = fast_sim(model, dispatch=dispatch).simulate(trace, pool)
        np.testing.assert_allclose(
            fast.latency_s, ref.latency_s, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(fast.wait_s, ref.wait_s, rtol=1e-12, atol=1e-12)
        assert fast.makespan_s == ref.makespan_s


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_engines_agree_with_noise(seed):
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.25})
    trace = random_trace(seed, 200)
    pool = PoolConfiguration(("g4dn", "t3"), (2, 3))
    ref = EventHeapSimulator(model).simulate(trace, pool)
    for dispatch in DISPATCHES:
        fast = fast_sim(model, dispatch=dispatch).simulate(trace, pool)
        np.testing.assert_allclose(
            fast.latency_s, ref.latency_s, rtol=1e-12, atol=1e-12
        )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_engines_agree_on_queue_lengths(seed):
    model = make_toy_model()
    trace = random_trace(seed, 250)
    pool = PoolConfiguration(("g4dn", "t3"), (1, 1))  # overloaded -> queueing
    ref = EventHeapSimulator(model).simulate(trace, pool)
    for dispatch in DISPATCHES:
        fast = fast_sim(model, track_queue=True, dispatch=dispatch).simulate(
            trace, pool
        )
        np.testing.assert_array_equal(
            fast.queue_len_at_arrival, ref.queue_len_at_arrival
        )


def test_three_type_pool_equivalence():
    model = make_toy_model()
    trace = random_trace(123, 400)
    pool = PoolConfiguration(("g4dn", "c5", "t3"), (1, 2, 2))
    ref = EventHeapSimulator(model).simulate(trace, pool)
    for dispatch in DISPATCHES:
        fast = fast_sim(model, dispatch=dispatch).simulate(trace, pool)
        np.testing.assert_allclose(
            fast.latency_s, ref.latency_s, rtol=1e-12, atol=1e-12
        )
        assert fast.queries_per_family() == ref.queries_per_family()


# -- both dispatch loops: bit-identical to the reference on adversarial pools --


def assert_dispatch_modes_match_reference(model, trace, pool):
    """Both dispatch loops must equal the event-heap reference
    bit-for-bit on every result field."""
    ref = EventHeapSimulator(model).simulate(trace, pool)
    for mode in DISPATCHES:
        sim = fast_sim(model, track_queue=True, dispatch=mode)
        res = sim.simulate(trace, pool)
        np.testing.assert_array_equal(res.latency_s, ref.latency_s, err_msg=mode)
        np.testing.assert_array_equal(res.wait_s, ref.wait_s, err_msg=mode)
        np.testing.assert_array_equal(res.service_s, ref.service_s, err_msg=mode)
        np.testing.assert_array_equal(
            res.instance_index, ref.instance_index, err_msg=mode
        )
        np.testing.assert_array_equal(
            res.queue_len_at_arrival, ref.queue_len_at_arrival, err_msg=mode
        )
        np.testing.assert_array_equal(
            res.busy_s_per_instance, ref.busy_s_per_instance, err_msg=mode
        )
        assert res.makespan_s == ref.makespan_s


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_heap_dispatch_single_instance(seed):
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.2})
    trace = random_trace(seed, 250)
    assert_dispatch_modes_match_reference(
        model, trace, PoolConfiguration.homogeneous("g4dn", 1)
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    g=st.integers(min_value=8, max_value=16),
    c=st.integers(min_value=8, max_value=12),
    t=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=15, deadline=None)
def test_heap_dispatch_large_pools(seed, g, c, t):
    """30+-instance pools: the scan's no-free-instance branch dominates."""
    model = make_toy_model(noise={"g4dn": 0.05, "c5": 0.1, "t3": 0.2})
    trace = random_trace(seed, 300)
    assert_dispatch_modes_match_reference(
        model, trace, PoolConfiguration(("g4dn", "c5", "t3"), (g, c, t))
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_heap_dispatch_zero_noise_ties(seed):
    """Zero-noise families produce massive free_at ties — the tie-break is
    part of the dispatch contract and must match in both paths."""
    model = make_toy_model(noise=0.0)
    trace = random_trace(seed, 250)
    assert_dispatch_modes_match_reference(
        model, trace, PoolConfiguration(("g4dn", "c5", "t3"), (4, 4, 4))
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_heap_dispatch_heavy_saturation(seed):
    """Far more offered load than capacity: queues thousands deep."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / 2000.0, size=800))
    batches = np.clip(
        np.rint(rng.lognormal(np.log(40.0), 0.8, size=800)), 1, 256
    ).astype(np.int64)
    trace = QueryTrace(arrivals, batches, rate_qps=2000.0, seed=seed)
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.25})
    assert_dispatch_modes_match_reference(
        model, trace, PoolConfiguration(("g4dn", "t3"), (2, 1))
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_vector_hetero_matches_event_reference(seed):
    """``auto`` on a mixed pool against the *event-driven* reference, with
    the counters proving which loop actually ran (the native one whenever
    it is available)."""
    model = make_toy_model(noise={"g4dn": 0.1, "c5": 0.15, "t3": 0.2})
    trace = random_trace(seed, 300)
    pool = PoolConfiguration(("g4dn", "c5", "t3"), (5, 4, 3))
    ref = EventHeapSimulator(model).simulate(trace, pool)
    sim = fast_sim(model, track_queue=True)
    res = sim.simulate(trace, pool)
    path = "native" if native_available() else "python"
    assert sim.dispatch_counts == {"native": 0, "python": 0, path: 1}
    np.testing.assert_array_equal(res.latency_s, ref.latency_s)
    np.testing.assert_array_equal(res.instance_index, ref.instance_index)
    np.testing.assert_array_equal(
        res.queue_len_at_arrival, ref.queue_len_at_arrival
    )
    assert res.makespan_s == ref.makespan_s


def test_auto_dispatch_equals_forced_paths(toy_model, toy_trace):
    pool = PoolConfiguration(("g4dn", "t3"), (2, 3))
    auto = fast_sim(toy_model, dispatch="auto").simulate(
        toy_trace, pool
    )
    python = fast_sim(toy_model, dispatch="python").simulate(
        toy_trace, pool
    )
    np.testing.assert_array_equal(auto.latency_s, python.latency_s)


def test_invalid_dispatch_mode_rejected(toy_model):
    import pytest

    with pytest.raises(ValueError, match="'python'"):
        InferenceServingSimulator(toy_model, dispatch="quantum")
