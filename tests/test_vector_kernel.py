"""Adversarial regression cases for the two dispatch loops.

These cases once pinned the NumPy busy-period kernels that the native
loop replaced; they now hold the native loop (``dispatch="auto"``) to
the Python heap loop (``dispatch="python"``) and to the event-heap
oracle, bit for bit, on every result field: randomized single-instance,
homogeneous and mixed pools across the load range, idle and saturated
traces, arrival ties, zero and equal service times, single-query traces
and bursty clumps.  The engagement and runner-plumbing cases check that
``auto`` runs the native loop on every pool shape (no size or load
crossover), that memo hits never count as dispatch, and that full
searches and the recorded bench goldens are identical on both loops.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EvaluationBudget, PoolSpec, Scenario, ScenarioRunner, WorkloadSpec
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.optimizer import RibbonOptimizer
from repro.core.search_space import SearchSpace
from repro.models.base import LatencyProfile
from repro.simulator import _native
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.events import EventHeapSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.workload.trace import QueryTrace
from tests.conftest import make_toy_model, make_toy_trace
from tests.test_native_dispatch import assert_identical, expected_path

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_search_core.json"


def sim(model, dispatch, **kwargs) -> InferenceServingSimulator:
    """A simulator with the whole-result memo disabled (A/B comparisons
    must actually re-dispatch, not replay the first run)."""
    return InferenceServingSimulator(
        model,
        dispatch=dispatch,
        result_cache=SimulationResultCache(maxsize=0),
        **kwargs,
    )


def rate_trace(seed: int, n: int, rate: float) -> QueryTrace:
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
    batches = np.clip(
        np.rint(rng.lognormal(np.log(30.0), 0.8, size=n)), 1, 256
    ).astype(np.int64)
    return QueryTrace(arrivals, batches, rate_qps=rate, seed=seed)


def assert_vector_matches_scalar(model, trace, pool):
    """``auto`` (the native loop when available), ``python`` and the
    event-heap oracle agree on every field."""
    native = sim(model, "auto").simulate(trace, pool)
    python = sim(model, "python").simulate(trace, pool)
    oracle = EventHeapSimulator(model).simulate(trace, pool)
    assert_identical(native, python, f"{pool} native/python")
    assert_identical(native, oracle, f"{pool} native/oracle")


# -- randomized pools across the load range -----------------------------------


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 400),
    rate=st.floats(5.0, 3000.0),
)
@settings(max_examples=40, deadline=None)
def test_vector_single_instance_random_workloads(seed, n, rate):
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.2, "c5": 0.15})
    trace = rate_trace(seed, n, rate)
    assert_vector_matches_scalar(
        model, trace, PoolConfiguration.homogeneous("g4dn", 1)
    )


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(2, 34),
    rate=st.floats(5.0, 3000.0),
)
@settings(max_examples=40, deadline=None)
def test_vector_homogeneous_random_pools(seed, m, rate):
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.2, "c5": 0.15})
    trace = rate_trace(seed, 300, rate)
    assert_vector_matches_scalar(
        model, trace, PoolConfiguration.homogeneous("t3", m)
    )


@given(seed=st.integers(0, 10_000), m=st.integers(30, 40))
@settings(max_examples=10, deadline=None)
def test_vector_large_homogeneous_saturated(seed, m):
    """30+-instance pools under load far beyond capacity: queues thousands
    deep, so the scan walks the whole pool on every arrival."""
    model = make_toy_model(noise={"g4dn": 0.05, "t3": 0.2, "c5": 0.1})
    trace = rate_trace(seed, 600, 20_000.0)
    assert_vector_matches_scalar(
        model, trace, PoolConfiguration.homogeneous("g4dn", m)
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_vector_idle_traces(seed):
    """Near-zero load: every busy period is a single query."""
    model = make_toy_model()
    trace = rate_trace(seed, 200, 2.0)
    for pool in (
        PoolConfiguration.homogeneous("g4dn", 1),
        PoolConfiguration.homogeneous("t3", 6),
    ):
        assert_vector_matches_scalar(model, trace, pool)


# -- adversarial edges ---------------------------------------------------------


def _tied_trace(n: int = 120) -> QueryTrace:
    """Heavy arrival ties: every timestamp is shared by a burst."""
    arrivals = np.repeat(np.arange(n // 4, dtype=float) * 0.004, 4)
    batches = np.full(n, 30, dtype=np.int64)
    return QueryTrace(arrivals, batches, rate_qps=1000.0, seed=11)


def test_vector_arrival_ties():
    model = make_toy_model()
    for pool in (
        PoolConfiguration.homogeneous("g4dn", 1),
        PoolConfiguration.homogeneous("g4dn", 3),
        PoolConfiguration.homogeneous("t3", 8),
    ):
        assert_vector_matches_scalar(model, _tied_trace(), pool)


def test_vector_zero_service_times():
    """A zero-latency profile makes every finish tie its start, so the
    ``free_at <= t`` test decides every dispatch."""
    model = make_toy_model()
    zero_profiles = dict(model.profiles)
    zero_profiles["t3"] = LatencyProfile(0.0, 0.0)
    import dataclasses

    model = dataclasses.replace(model, profiles=zero_profiles)
    trace = rate_trace(3, 150, 500.0)
    for pool in (
        PoolConfiguration.homogeneous("t3", 1),
        PoolConfiguration.homogeneous("t3", 4),
    ):
        assert_vector_matches_scalar(model, trace, pool)


def test_vector_single_query_trace():
    model = make_toy_model()
    trace = rate_trace(5, 1, 100.0)
    for pool in (
        PoolConfiguration.homogeneous("g4dn", 1),
        PoolConfiguration.homogeneous("g4dn", 5),
    ):
        assert_vector_matches_scalar(model, trace, pool)


def test_vector_kernels_reject_nothing_silently():
    """Raw native edge: an empty trace on a three-instance pool returns
    empty per-query arrays, zero busy time and a zero makespan."""
    fn = _native.LOADER.function()
    if fn is None:
        pytest.skip(f"native loop unavailable: {_native.LOADER.error}")
    types = np.array([0, 0, 0], dtype=np.int64)
    start, service, wait, latency, chosen, busy, queue, makespan = (
        _native.fcfs_dispatch(fn, np.empty(0), np.empty((1, 0)), types, True)
    )
    assert start.size == service.size == wait.size == latency.size == 0
    assert chosen.size == 0
    assert queue.size == 0 and makespan == 0.0
    np.testing.assert_array_equal(busy, [0.0, 0.0, 0.0])


# -- heterogeneous pools ---------------------------------------------------------


def bursty_trace(seed: int, n: int, rate: float) -> QueryTrace:
    """Adversarial arrival law: dense clumps of exact arrival ties
    separated by long silences, so pools swing between idle and saturated."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n)
    gaps[rng.random(n) < 0.4] = 0.0  # exact ties inside a clump
    gaps[rng.random(n) < 0.08] *= 50.0  # silences between clumps
    arrivals = np.cumsum(gaps)
    batches = np.clip(
        np.rint(rng.lognormal(np.log(30.0), 0.8, size=n)), 1, 256
    ).astype(np.int64)
    return QueryTrace(arrivals, batches, rate_qps=rate, seed=seed)


@given(
    seed=st.integers(0, 10_000),
    c1=st.integers(1, 8),
    c2=st.integers(1, 8),
    c3=st.integers(0, 8),
    rate=st.floats(5.0, 3000.0),
)
@settings(max_examples=40, deadline=None)
def test_vector_heterogeneous_random_pools(seed, c1, c2, c3, rate):
    """Mixed 2-3 family pools across the load range."""
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.2, "c5": 0.15})
    trace = rate_trace(seed, 300, rate)
    families, counts = ("g4dn", "t3"), (c1, c2)
    if c3:
        families, counts = ("g4dn", "t3", "c5"), (c1, c2, c3)
    assert_vector_matches_scalar(
        model, trace, PoolConfiguration(families, counts)
    )


def test_vector_hetero_arrival_ties_across_families():
    """Tied arrivals landing on instances of different families: the
    chosen instance decides every service time."""
    model = make_toy_model()
    for pool in (
        PoolConfiguration(("g4dn", "t3"), (2, 2)),
        PoolConfiguration(("g4dn", "t3", "c5"), (3, 2, 3)),
    ):
        assert_vector_matches_scalar(model, _tied_trace(), pool)


def test_vector_hetero_equal_service_times():
    """Identical latency profiles in every family: finish times tie
    across family boundaries constantly, so the lowest-index tie-break
    decides."""
    import dataclasses

    model = make_toy_model()
    same = {f: LatencyProfile(1.0, 0.1) for f in model.profiles}
    model = dataclasses.replace(model, profiles=same)
    trace = rate_trace(9, 200, 800.0)
    assert_vector_matches_scalar(
        model, trace, PoolConfiguration(("g4dn", "t3", "c5"), (2, 2, 2))
    )


def test_vector_hetero_zero_service_times():
    """One zero-latency family inside a mixed pool: every pop of a 't3'
    instance ties its own start."""
    import dataclasses

    model = make_toy_model()
    zero = dict(model.profiles)
    zero["t3"] = LatencyProfile(0.0, 0.0)
    model = dataclasses.replace(model, profiles=zero)
    trace = rate_trace(3, 150, 500.0)
    assert_vector_matches_scalar(
        model, trace, PoolConfiguration(("g4dn", "t3"), (2, 3))
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_vector_bursty_clumped_arrivals(seed):
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.2, "c5": 0.15})
    trace = bursty_trace(seed, 300, 600.0)
    for pool in (
        PoolConfiguration.homogeneous("t3", 6),
        PoolConfiguration(("g4dn", "t3", "c5"), (2, 3, 2)),
    ):
        assert_vector_matches_scalar(model, trace, pool)


# -- engagement counters -------------------------------------------------------


def test_forced_vector_engages_on_eligible_pools(toy_model):
    """``auto`` runs one loop on single-instance and homogeneous pools."""
    trace = make_toy_trace(toy_model, n=300)
    s = sim(toy_model, "auto")
    s.simulate(trace, PoolConfiguration.homogeneous("g4dn", 1))
    s.simulate(trace, PoolConfiguration.homogeneous("t3", 4))
    assert s.dispatch_counts[expected_path()] == 2


def test_forced_vector_engages_hetero_kernel(toy_model):
    """``auto`` on a mixed-family pool never takes the Python loop when
    the native one is available, and matches it bit for bit."""
    trace = make_toy_trace(toy_model, n=300)
    pool = PoolConfiguration(("g4dn", "t3"), (2, 2))
    s = sim(toy_model, "auto")
    native = s.simulate(trace, pool)
    path = expected_path()
    assert s.dispatch_counts == {"native": 0, "python": 0, path: 1}
    assert_identical(native, sim(toy_model, "python").simulate(trace, pool), str(pool))


def test_auto_picks_vector_for_single_instance(toy_model):
    trace = make_toy_trace(toy_model, n=300)
    s = sim(toy_model, "auto")
    s.simulate(trace, PoolConfiguration.homogeneous("g4dn", 1))
    assert s.dispatch_counts[expected_path()] == 1


def test_auto_keeps_scalar_paths_for_small_scalar_regimes(toy_model):
    """No crossover: tiny traces and small pools run the same loop."""
    s = sim(toy_model, "auto")
    tiny = make_toy_trace(toy_model, n=20)
    s.simulate(tiny, PoolConfiguration.homogeneous("g4dn", 1))
    trace = make_toy_trace(toy_model, n=300)
    s.simulate(trace, PoolConfiguration(("g4dn", "t3"), (1, 2)))
    assert s.dispatch_counts[expected_path()] == 2


def test_memo_hits_do_not_count_as_dispatch(toy_model):
    trace = make_toy_trace(toy_model, n=200)
    s = InferenceServingSimulator(
        toy_model, dispatch="python", result_cache=SimulationResultCache(maxsize=8)
    )
    pool = PoolConfiguration.homogeneous("g4dn", 1)
    s.simulate(trace, pool)
    s.simulate(trace, pool)  # memo hit
    assert s.dispatch_counts == {"native": 0, "python": 1}


def test_dispatch_validation_lists_the_full_policy_set(toy_model):
    with pytest.raises(ValueError) as err:
        InferenceServingSimulator(toy_model, dispatch="quantum")
    for policy in ("auto", "python"):
        assert repr(policy) in str(err.value)


# -- runner plumbing -----------------------------------------------------------


def _scenario():
    return Scenario(
        model="MT-WND",
        workload=WorkloadSpec(n_queries=500, seed=3, load_factor=1.5),
        pool=PoolSpec(families=("g4dn", "c5"), bounds=(3, 4)),
        budget=EvaluationBudget(max_samples=12),
    )


def test_runner_dispatch_validation():
    from repro.api.scenario import ScenarioError

    with pytest.raises(ScenarioError) as err:
        ScenarioRunner(_scenario(), dispatch="warp")
    for policy in ("auto", "python"):
        assert repr(policy) in str(err.value)


def test_runner_reports_dispatch_engagement():
    runner = ScenarioRunner(
        _scenario(),
        dispatch="python",
        simulation_cache=SimulationResultCache(maxsize=0),
    )
    # Under the forced Python policy every simulation of the homogeneous
    # scan runs the Python loop.
    runner.homogeneous_optimum(seed=0)
    stats = runner.cache_stats()
    assert set(stats["dispatch"]) == {"native", "python"}
    assert stats["dispatch"]["python"] > 0
    assert stats["dispatch"]["native"] == 0
    assert runner.dispatch_counts() == stats["dispatch"]


def test_runner_vector_search_is_bit_identical():
    """Same scenario, same seed: dispatch="python" and the default must
    return the same SearchResult, sample for sample."""
    kwargs = dict(simulation_cache=SimulationResultCache(maxsize=0))
    auto = ScenarioRunner(_scenario(), **kwargs).run("ribbon", seed=1)
    vec = ScenarioRunner(_scenario(), dispatch="python", **kwargs).run(
        "ribbon", seed=1
    )
    assert [r.pool.counts for r in vec.history] == [
        r.pool.counts for r in auto.history
    ]
    assert [r.qos_rate for r in vec.history] == [r.qos_rate for r in auto.history]
    assert vec.best.pool.counts == auto.best.pool.counts
    assert vec.best.cost_per_hour == auto.best.cost_per_hour


# -- golden search sequences ---------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_bench_golden_sequence_under_vector_dispatch(seed):
    """The recorded bench-workload goldens replay exactly under the
    default policy through the default shared result memo."""
    from repro.models.zoo import get_model
    from repro.workload.trace import trace_for_model

    artifact = json.loads(BENCH_JSON.read_text())
    spec, golden = artifact["workload"], artifact["golden"]
    model = get_model(spec["model"])
    trace = trace_for_model(
        model,
        n_queries=spec["n_queries"],
        seed=spec["trace_seed"],
        load_factor=spec["load_factor"],
    )
    space = SearchSpace(tuple(spec["families"]), tuple(spec["bounds"]))
    evaluator = ConfigurationEvaluator(model, trace, RibbonObjective(space))
    res = RibbonOptimizer(max_samples=spec["max_samples"], seed=seed).search(
        evaluator
    )
    expected = golden[str(seed)]
    assert res.best is not None
    assert list(res.best.pool.counts) == expected["best"]
    assert [list(r.pool.counts) for r in res.history] == expected["sequence"]
    # Every dispatched sample ran on one loop; samples that hit the shared
    # memo (filled by other searches in the process) never dispatch.
    counts = evaluator.simulator.dispatch_counts
    assert counts[expected_path()] <= evaluator.n_evaluations
    assert sum(counts.values()) == counts[expected_path()]
