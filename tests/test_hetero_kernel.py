"""The native loop at its raw boundary, and ``auto``'s engagement.

:func:`repro.simulator._native.fcfs_dispatch` claims bit identity with the
engine's FCFS rule on every pool.  These tests attack that claim at the
wrapper boundary with a differential oracle (a deliberately naive scalar
loop implementing the dispatch rule), driving the adversarial regimes
that once stressed the grouped-family vector kernel: arrival ties across
family boundaries, equal service times in every family, zero-latency
families, quantized services that tie finish clocks, and bursty clumped
arrival laws.

Engine-level engagement is covered too: ``auto`` runs the native loop on
pools of every size (there is no crossover), falls back to the Python
loop with identical results when the library is unavailable, and the
counters carry exactly the two loop names.
"""

import numpy as np
import pytest

from repro.simulator import _native
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.workload.trace import QueryTrace
from tests.conftest import make_toy_model
from tests.test_native_dispatch import assert_identical, expected_path


def native_fn():
    fn = _native.LOADER.function()
    if fn is None:
        pytest.skip(f"native loop unavailable: {_native.LOADER.error}")
    return fn


def heterogeneous_pool(arrivals, matrix, fam, track_queue):
    """The native loop on raw arrays, outputs in the reference's order."""
    start, service, _, _, chosen, busy, queue_len, makespan = _native.fcfs_dispatch(
        native_fn(), arrivals, matrix, fam, track_queue
    )
    return start, chosen, service, busy, queue_len, makespan


def scalar_reference(arrivals, matrix, fam):
    """The engine's FCFS dispatch rule, written as plainly as possible:
    lowest-index free instance, else earliest-free (lowest index on
    clock ties).  Service time is the chosen instance's family row."""
    m = fam.shape[0]
    n = arrivals.shape[0]
    free_at = np.zeros(m, dtype=float)
    starts = np.empty(n, dtype=float)
    chosen = np.empty(n, dtype=np.int64)
    for q in range(n):
        t = arrivals[q]
        free = np.nonzero(free_at <= t)[0]
        if free.size:
            i = int(free[0])
            start = float(t)
        else:
            i = int(np.argmin(free_at))
            start = float(free_at[i])
        free_at[i] = start + float(matrix[fam[i], q])
        starts[q] = start
        chosen[q] = i
    return starts, chosen


def random_case(rng):
    """One adversarial differential trial: 2-5 families, 1-8 instances
    each, an arrival law and a service-matrix style drawn to maximize
    tie pressure on the dispatch tie-breaks."""
    n_fam = int(rng.integers(2, 6))
    counts = rng.integers(1, 9, size=n_fam)
    fam = np.repeat(np.arange(n_fam), counts)
    n = int(rng.integers(1, 401))
    rate = float(rng.uniform(5.0, 3000.0))
    gaps = rng.exponential(1.0 / rate, size=n)
    law = int(rng.integers(0, 4))
    if law == 1:  # heavy exact arrival ties
        gaps[rng.random(n) < 0.5] = 0.0
    elif law == 2:  # bursty clumps split by long silences
        gaps[rng.random(n) < 0.4] = 0.0
        gaps[rng.random(n) < 0.1] *= 50.0
    elif law == 3:  # lockstep grid: most queries share a timestamp
        gaps = float(rng.uniform(0.001, 0.01)) * (rng.random(n) < 0.25)
    arrivals = np.cumsum(gaps)
    matrix = rng.uniform(0.0005, 0.02, size=(n_fam, n))
    style = int(rng.integers(0, 3))
    if style == 1:  # identical services in every family: pure label ties
        matrix[:] = matrix[0]
    elif style == 2:  # quantized services: finish clocks collide
        matrix = np.round(matrix, 3)
    if rng.random() < 0.2:  # a zero-latency family in the mix
        matrix[int(rng.integers(0, n_fam))] = 0.0
    return arrivals, np.ascontiguousarray(matrix), fam


@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_scalar_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(15):
        arrivals, matrix, fam = random_case(rng)
        starts, chosen, service_s, busy, queue_len, makespan = heterogeneous_pool(
            arrivals, matrix, fam, True
        )
        ref_starts, ref_chosen = scalar_reference(arrivals, matrix, fam)
        np.testing.assert_array_equal(starts, ref_starts)
        np.testing.assert_array_equal(chosen, ref_chosen)
        # Derived outputs must be consistent with the dispatch sequence.
        n = arrivals.shape[0]
        expect_service = matrix[fam[chosen], np.arange(n)]
        np.testing.assert_array_equal(service_s, expect_service)
        np.testing.assert_array_equal(
            busy,
            np.bincount(chosen, weights=expect_service, minlength=fam.shape[0]),
        )
        assert makespan == float(np.max(starts + expect_service))
        assert queue_len.shape == arrivals.shape


def test_kernel_empty_trace():
    empty = np.empty(0, dtype=float)
    fam = np.array([0, 0, 1], dtype=np.int64)
    out = heterogeneous_pool(empty, np.empty((2, 0)), fam, True)
    starts, chosen, service_s, busy, queue_len, makespan = out
    assert starts.size == chosen.size == service_s.size == queue_len.size == 0
    assert makespan == 0.0 and np.all(busy == 0.0) and busy.shape == (3,)


def test_kernel_single_query():
    arrivals = np.array([0.5])
    matrix = np.array([[0.2], [0.1]])
    fam = np.array([0, 1], dtype=np.int64)
    starts, chosen, service_s, busy, queue_len, makespan = heterogeneous_pool(
        arrivals, matrix, fam, True
    )
    assert starts[0] == 0.5 and chosen[0] == 0  # lowest free index wins
    assert service_s[0] == 0.2 and makespan == 0.7
    np.testing.assert_array_equal(busy, [0.2, 0.0])
    np.testing.assert_array_equal(queue_len, [0])


def test_kernel_rejects_negative_first_arrival():
    """Instance clocks start at 0.0, so a negative arrival is outside the
    dispatch domain: traces reject it at construction."""
    with pytest.raises(ValueError, match="non-negative"):
        QueryTrace(np.array([-1.0, 0.5]), np.array([1, 1]), rate_qps=1.0)


def test_kernel_skips_queue_lengths_when_untracked():
    rng = np.random.default_rng(7)
    arrivals, matrix, fam = random_case(rng)
    assert heterogeneous_pool(arrivals, matrix, fam, False)[4] is None


# -- engine engagement and fallback telemetry ----------------------------------


def sim(model, dispatch):
    return InferenceServingSimulator(
        model, dispatch=dispatch, result_cache=SimulationResultCache(maxsize=0)
    )


def saturating_trace(n: int) -> QueryTrace:
    """Near-simultaneous arrivals: offered load far beyond any pool."""
    arrivals = np.arange(n, dtype=float) * 1e-6
    batches = np.full(n, 30, dtype=np.int64)
    return QueryTrace(arrivals, batches, rate_qps=1e6, seed=0)


def test_auto_engages_hetero_kernel_past_crossover():
    """A saturated 72-instance three-family pool: ``auto`` runs the native
    loop and the result is bit-identical to the Python loop."""
    model = make_toy_model()
    pool = PoolConfiguration(("g4dn", "t3", "c5"), (24, 24, 24))
    trace = saturating_trace(200)
    s = sim(model, "auto")
    res = s.simulate(trace, pool)
    path = expected_path()
    assert s.dispatch_counts == {"native": 0, "python": 0, path: 1}
    assert_identical(res, sim(model, "python").simulate(trace, pool))


def test_auto_counts_crossover_fallbacks_below_the_floor():
    """No pool-size floor any more: small saturated pools of both flavors
    run the same loop as big ones."""
    model = make_toy_model()
    trace = saturating_trace(100)
    s = sim(model, "auto")
    s.simulate(trace, PoolConfiguration(("g4dn", "t3"), (2, 2)))
    s.simulate(trace, PoolConfiguration.homogeneous("t3", 8))
    path = expected_path()
    assert s.dispatch_counts == {"native": 0, "python": 0, path: 2}


class _Unavailable:
    error = "OSError: no library"

    def function(self):
        return None


def test_tie_screen_fallback_still_returns_exact_heap_result(monkeypatch):
    """With the native library unavailable, ``auto`` counts a Python run
    and returns exactly what the Python loop returns."""
    model = make_toy_model()
    trace = saturating_trace(60)
    pool = PoolConfiguration(("g4dn", "t3"), (1, 1))
    native = sim(model, "auto").simulate(trace, pool)
    monkeypatch.setattr(_native, "LOADER", _Unavailable())
    s = sim(model, "auto")
    res = s.simulate(trace, pool)
    assert s.dispatch_counts == {"native": 0, "python": 1}
    assert_identical(res, native)


def test_fallback_aggregate_is_the_sum_of_reasons():
    """The counters hold exactly the two loops, and they sum to the
    simulations dispatched."""
    model = make_toy_model()
    trace = saturating_trace(100)
    s = sim(model, "auto")
    s.simulate(trace, PoolConfiguration(("g4dn", "t3"), (3, 3)))
    s.simulate(trace, PoolConfiguration(("g4dn", "t3", "c5"), (24, 24, 24)))
    counts = s.dispatch_counts
    assert set(counts) == {"native", "python"}
    assert sum(counts.values()) == 2


def test_merge_dispatch_accepts_the_reason_keys():
    """Worker-process deltas land on the same counters local dispatch
    would; the retired kernel paths are unknown and rejected."""
    model = make_toy_model()
    s = sim(model, "auto")
    s.merge_dispatch({"native": 2, "python": 1})
    assert s.dispatch_counts == {"native": 2, "python": 1}
    with pytest.raises(ValueError, match="vector_hetero"):
        s.merge_dispatch({"vector_hetero": 1})
