"""The native FCFS loop against the Python loop and the event-heap oracle.

``dispatch="auto"`` runs the C scan of :mod:`repro.simulator._native`;
``dispatch="python"`` runs the pure-Python heap loop; the event-heap
engine is an independent implementation of the same policy.  The
differential fuzz below feeds all three the same trace and the same
service-time matrix (seeded into one shared cache) and requires every
result field to be bit-equal.  It draws the adversarial laws the dispatch
tie-breaks exist for: arrival ties across family boundaries, bursty
clumps, lockstep grids, equal and zero service times, quantized services
that tie finish clocks, 1 to 160 instances over 2 to 5 families.

The rest covers the native boundary: the O(m) argument guards, the
domain checks on traces and seeded matrices, and the loader (per-user
cache directory, one build under concurrent first use, refusal of unsafe
directories, and a bit-identical Python fallback when the build fails).
"""

import dataclasses
import os
import stat
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import LatencyProfile
from repro.simulator import _native, engine
from repro.simulator.engine import InferenceServingSimulator, native_available
from repro.simulator.events import EventHeapSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.simulator.service import ServiceTimeCache
from repro.workload.trace import QueryTrace
from tests.conftest import make_toy_model, make_toy_trace

FAMILIES = ("g4dn", "t3", "c5", "r5n", "m5")

RESULT_FIELDS = (
    "latency_s",
    "wait_s",
    "service_s",
    "instance_index",
    "busy_s_per_instance",
    "queue_len_at_arrival",
)


def expected_path() -> str:
    """The loop ``auto`` must have run on this host."""
    return "native" if native_available() else "python"


def five_family_model():
    """The toy model with a latency profile for every fuzzed family."""
    return dataclasses.replace(
        make_toy_model(),
        profiles={fam: LatencyProfile(1.0, 0.1) for fam in FAMILIES},
    )


def assert_identical(a, b, tag=""):
    """Every SimulationResult field, bit for bit."""
    for name in RESULT_FIELDS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=f"{tag} {name}"
        )
    assert a.instance_family == b.instance_family, f"{tag} families"
    assert a.makespan_s == b.makespan_s, f"{tag} makespan"


def adversarial_arrivals(rng, n: int, rate: float, law: str) -> np.ndarray:
    gaps = rng.exponential(1.0 / rate, size=n)
    if law == "ties":  # exact arrival ties, landing across family boundaries
        gaps[rng.random(n) < 0.5] = 0.0
    elif law == "bursty":  # dense clumps split by long silences
        gaps[rng.random(n) < 0.4] = 0.0
        gaps[rng.random(n) < 0.1] *= 50.0
    elif law == "lockstep":  # most queries share a grid timestamp
        gaps = float(rng.uniform(0.001, 0.01)) * (rng.random(n) < 0.25)
    return np.cumsum(gaps)


def adversarial_matrix(rng, n_fam: int, n: int, style: str) -> np.ndarray:
    matrix = rng.uniform(0.0005, 0.02, size=(n_fam, n))
    if style == "equal":  # identical services in every family
        matrix[:] = matrix[0]
    elif style == "quantized":  # finish clocks collide
        matrix = np.round(matrix, 3)
    elif style == "zero_family":
        matrix[int(rng.integers(0, n_fam))] = 0.0
    elif style == "all_zero":
        matrix[:] = 0.0
    return matrix


def run_three_ways(model, trace, families, counts, matrix, track_queue=True):
    """``auto``, ``python`` and the oracle on one seeded service matrix."""
    cache = ServiceTimeCache()
    cache.seed_matrix(model, trace, families, matrix)
    pool = PoolConfiguration(families, counts)
    results = {}
    for dispatch in InferenceServingSimulator.DISPATCH_POLICIES:
        sim = InferenceServingSimulator(
            model,
            dispatch=dispatch,
            track_queue=track_queue,
            service_cache=cache,
            result_cache=SimulationResultCache(maxsize=0),
        )
        results[dispatch] = sim.simulate(trace, pool)
        path = expected_path() if dispatch == "auto" else "python"
        assert sim.dispatch_counts[path] == 1
    oracle = EventHeapSimulator(model, service_cache=cache).simulate(trace, pool)
    return results["auto"], results["python"], oracle


@st.composite
def fuzz_cases(draw):
    n_fam = draw(st.integers(2, 5))
    m = draw(st.integers(1, 160))
    cuts = sorted(
        draw(st.lists(st.integers(0, m), min_size=n_fam - 1, max_size=n_fam - 1))
    )
    counts = tuple(int(c) for c in np.diff([0, *cuts, m]))
    return dict(
        n_fam=n_fam,
        counts=counts,
        n=draw(st.integers(1, 300)),
        rate=draw(st.floats(5.0, 20_000.0)),
        law=draw(st.sampled_from(("poisson", "ties", "bursty", "lockstep"))),
        style=draw(
            st.sampled_from(("random", "equal", "quantized", "zero_family", "all_zero"))
        ),
        seed=draw(st.integers(0, 2**32 - 1)),
        track_queue=draw(st.booleans()),
    )


@given(case=fuzz_cases())
@settings(max_examples=150, deadline=None)
def test_native_python_and_oracle_are_bit_equal(case):
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    arrivals = adversarial_arrivals(rng, n, case["rate"], case["law"])
    matrix = adversarial_matrix(rng, case["n_fam"], n, case["style"])
    trace = QueryTrace(arrivals, np.ones(n, dtype=np.int64), case["rate"], 0)
    native, python, oracle = run_three_ways(
        five_family_model(),
        trace,
        FAMILIES[: case["n_fam"]],
        case["counts"],
        matrix,
        case["track_queue"],
    )
    assert_identical(native, python, "native/python")
    if case["track_queue"]:
        assert_identical(native, oracle, "native/oracle")
    else:  # the oracle always records queue lengths
        assert native.queue_len_at_arrival.size == 0
        np.testing.assert_array_equal(native.latency_s, oracle.latency_s)
        np.testing.assert_array_equal(native.instance_index, oracle.instance_index)


def test_single_instance_and_single_query_edges():
    model = five_family_model()
    trace = QueryTrace(np.array([0.5]), np.array([1]), 1.0, 0)
    matrix = np.array([[0.2], [0.1]])
    for counts in ((1, 0), (0, 1), (1, 1)):
        native, python, oracle = run_three_ways(
            model, trace, FAMILIES[:2], counts, matrix
        )
        assert_identical(native, python, str(counts))
        assert_identical(native, oracle, str(counts))
    assert native.latency_s[0] == 0.2 and native.instance_index[0] == 0


# -- boundary guards -------------------------------------------------------------


def _raw_args():
    arrivals = np.array([0.0, 0.1, 0.2])
    matrix = np.full((2, 3), 0.05)
    types = np.array([0, 0, 1], dtype=np.int64)
    return arrivals, matrix, types


@pytest.mark.parametrize(
    "mutate",
    [
        lambda a, mx, t: (a.astype(np.float32), mx, t),
        lambda a, mx, t: (a, np.full((2, 6), 0.05)[:, ::2], t),
        lambda a, mx, t: (a, mx, t.astype(np.int32)),
        lambda a, mx, t: (a, np.full((2, 4), 0.05), t),
        lambda a, mx, t: (a, mx.ravel(), t),
        lambda a, mx, t: (a, mx, np.array([0, 2], dtype=np.int64)),
        lambda a, mx, t: (a, mx, np.array([-1, 0], dtype=np.int64)),
        lambda a, mx, t: (a, mx, np.empty(0, dtype=np.int64)),
    ],
    ids=[
        "float32-arrivals",
        "strided-matrix",
        "int32-types",
        "matrix-length-mismatch",
        "1d-matrix",
        "type-index-too-large",
        "negative-type-index",
        "empty-pool",
    ],
)
def test_native_wrapper_rejects_bad_arguments(mutate):
    fn = _native.LOADER.function()
    if fn is None:
        pytest.skip(f"native loop unavailable: {engine.native_error()}")
    arrivals, matrix, types = mutate(*_raw_args())
    with pytest.raises(ValueError):
        _native.fcfs_dispatch(fn, arrivals, matrix, types, True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_trace_rejects_non_finite_or_negative_arrivals(bad):
    arrivals = np.array([bad, 1.0, 2.0]) if bad < 0 else np.array([0.0, 1.0, bad])
    with pytest.raises(ValueError, match="arrival"):
        QueryTrace(arrivals, np.ones(3, dtype=np.int64), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-9])
def test_seed_matrix_rejects_non_finite_or_negative_services(bad, toy_model):
    trace = make_toy_trace(toy_model, n=5)
    matrix = np.full((2, 5), 0.01)
    matrix[1, 3] = bad
    with pytest.raises(ValueError, match="service times"):
        ServiceTimeCache().seed_matrix(toy_model, trace, ("g4dn", "t3"), matrix)


# -- the loader ------------------------------------------------------------------


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A not-yet-loaded loader building under a private cache home."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    loader = _native.NativeLoader()
    monkeypatch.setattr(_native, "LOADER", loader)
    return loader


def _counting_compiler(monkeypatch, fail: bool = False):
    calls = []
    real = _native.compile_library

    def compile_library(target):
        calls.append(target)
        if fail:
            raise OSError("cc exited with status 1: simulated compiler failure")
        real(target)

    monkeypatch.setattr(_native, "compile_library", compile_library)
    return calls


def test_loader_builds_once_into_a_private_cache_dir(
    fresh_loader, monkeypatch, tmp_path
):
    calls = _counting_compiler(monkeypatch)
    fns = []
    threads = [
        threading.Thread(target=lambda: fns.append(fresh_loader.function()))
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the first-use race densely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if fresh_loader.error is not None:
        pytest.skip(f"no native build on this host: {fresh_loader.error}")
    assert len(calls) == 1
    assert len(fns) == 8 and fns[0] is not None
    assert all(fn is fns[0] for fn in fns)
    directory = tmp_path / "repro-ribbon"
    assert stat.S_IMODE(os.stat(directory).st_mode) == 0o700
    assert calls[0].parent == directory and calls[0].exists()
    assert not list(directory.glob("*.tmp"))  # compiled via os.replace
    # A second process-level loader reuses the cached build.
    again = _native.NativeLoader()
    assert again.function() is not None
    assert len(calls) == 1


def test_library_name_is_keyed_by_source_and_flags(monkeypatch, tmp_path):
    base = _native.library_path(tmp_path)
    monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, "-g"))
    assert _native.library_path(tmp_path) != base


def test_loader_is_lazy(fresh_loader, monkeypatch, toy_model, toy_trace):
    calls = _counting_compiler(monkeypatch)
    sim = InferenceServingSimulator(
        toy_model, result_cache=SimulationResultCache(maxsize=0)
    )
    python = InferenceServingSimulator(
        toy_model, dispatch="python", result_cache=SimulationResultCache(maxsize=0)
    )
    pool = PoolConfiguration(("g4dn", "t3"), (1, 2))
    python.simulate(toy_trace, pool)
    assert calls == []  # neither construction nor dispatch="python" builds
    sim.simulate(toy_trace, pool)
    assert len(calls) == 1


@pytest.mark.parametrize("unsafe", ["world-writable", "symlink"])
def test_loader_refuses_unsafe_cache_dirs(fresh_loader, tmp_path, unsafe):
    target = tmp_path / "repro-ribbon"
    if unsafe == "symlink":
        real = tmp_path / "elsewhere"
        real.mkdir(mode=0o700)
        target.symlink_to(real)
    else:
        target.mkdir()
        target.chmod(0o777)
    assert fresh_loader.function() is None
    assert "PermissionError" in fresh_loader.error
    assert not native_available() and engine.native_error() == fresh_loader.error


def test_compiler_failure_falls_back_bit_identically(
    fresh_loader, monkeypatch, toy_model, toy_trace
):
    pool = PoolConfiguration(("g4dn", "t3"), (2, 3))
    reference = InferenceServingSimulator(
        toy_model, dispatch="python", result_cache=SimulationResultCache(maxsize=0)
    ).simulate(toy_trace, pool)
    _counting_compiler(monkeypatch, fail=True)
    sim = InferenceServingSimulator(
        toy_model, result_cache=SimulationResultCache(maxsize=0)
    )
    res = sim.simulate(toy_trace, pool)
    assert sim.dispatch_counts == {"native": 0, "python": 1}
    assert not native_available()
    assert "simulated compiler failure" in engine.native_error()
    assert_identical(res, reference)
