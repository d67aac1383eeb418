"""Unit tests for the from-scratch GP regressor."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.optimizer import RibbonOptimizer
from repro.core.search_space import SearchSpace
from repro.gp import regression
from repro.gp.kernels import RBF, ConstantScale, Matern52, RoundedKernel, WhiteNoise
from repro.gp.regression import GaussianProcessRegressor
from repro.simulator.result_cache import SimulationResultCache
from tests.conftest import make_toy_model, make_toy_trace


def smooth_fn(x):
    return np.sin(3.0 * x).ravel()


class TestFitPredict:
    def test_interpolates_training_points(self):
        X = np.linspace(0, 1, 8)[:, None]
        y = smooth_fn(X)
        gp = GaussianProcessRegressor(RBF(0.3), noise=1e-8, optimize_hyperparameters=False)
        gp.fit(X, y)
        pred = gp.predict(X)
        np.testing.assert_allclose(pred, y, atol=1e-4)

    def test_posterior_std_small_at_training_points(self):
        X = np.linspace(0, 1, 6)[:, None]
        y = smooth_fn(X)
        gp = GaussianProcessRegressor(Matern52(0.3), noise=1e-8, optimize_hyperparameters=False)
        gp.fit(X, y)
        _, std = gp.predict(X, return_std=True)
        assert np.all(std < 1e-2)

    def test_posterior_std_larger_away_from_data(self):
        X = np.array([[0.0], [0.2]])
        y = smooth_fn(X)
        gp = GaussianProcessRegressor(Matern52(0.2), noise=1e-8, optimize_hyperparameters=False)
        gp.fit(X, y)
        _, std_near = gp.predict([[0.1]], return_std=True)
        _, std_far = gp.predict([[2.0]], return_std=True)
        assert std_far[0] > std_near[0]

    def test_mean_reverts_to_prior_far_away(self):
        X = np.array([[0.0]])
        y = np.array([5.0])
        gp = GaussianProcessRegressor(
            Matern52(0.1), noise=1e-8, normalize_y=True, optimize_hyperparameters=False
        )
        gp.fit(X, y)
        far = gp.predict([[100.0]])
        # Normalized prior mean is the data mean.
        assert far[0] == pytest.approx(5.0, abs=1e-6)

    def test_predict_before_fit_raises(self):
        gp = GaussianProcessRegressor(RBF())
        with pytest.raises(RuntimeError):
            gp.predict([[0.0]])
        with pytest.raises(RuntimeError):
            gp.log_marginal_likelihood()

    def test_shape_validation(self):
        gp = GaussianProcessRegressor(RBF())
        with pytest.raises(ValueError, match="rows"):
            gp.fit(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="zero observations"):
            gp.fit(np.zeros((0, 1)), np.zeros(0))

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(RBF(), noise=0.0)

    def test_train_accessors(self):
        X = np.linspace(0, 1, 5)[:, None]
        y = smooth_fn(X)
        gp = GaussianProcessRegressor(RBF(0.3), optimize_hyperparameters=False).fit(X, y)
        np.testing.assert_allclose(gp.X_train, X)
        np.testing.assert_allclose(gp.y_train, y, atol=1e-12)


class TestHyperparameterFit:
    def test_lml_improves_with_optimization(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(20, 1))
        y = smooth_fn(X)
        k_bad = Matern52(length_scale=10.0, variance=0.01)
        gp_fixed = GaussianProcessRegressor(
            Matern52(10.0, 0.01), noise=1e-6, optimize_hyperparameters=False
        ).fit(X, y)
        lml_fixed = gp_fixed.log_marginal_likelihood()
        gp_opt = GaussianProcessRegressor(
            k_bad, noise=1e-6, optimize_hyperparameters=True, n_restarts=2
        ).fit(X, y)
        lml_opt = gp_opt.log_marginal_likelihood()
        assert lml_opt >= lml_fixed - 1e-6

    def test_lml_theta_argument_is_side_effect_free(self):
        X = np.linspace(0, 1, 6)[:, None]
        y = smooth_fn(X)
        gp = GaussianProcessRegressor(Matern52(), optimize_hyperparameters=False).fit(X, y)
        theta0 = gp.kernel.get_theta().copy()
        gp.log_marginal_likelihood(theta0 + 1.0)
        np.testing.assert_allclose(gp.kernel.get_theta(), theta0)

    def test_duplicate_inputs_do_not_crash(self):
        # Rounded kernels create exactly duplicated rows; the jittered
        # Cholesky must survive them.
        X = np.array([[0.5], [0.5], [0.7]])
        y = np.array([1.0, 1.0, 2.0])
        kernel = RoundedKernel(Matern52(0.3), scale=10.0)
        gp = GaussianProcessRegressor(kernel, noise=1e-6, optimize_hyperparameters=False)
        gp.fit(X, y)
        mean = gp.predict([[0.5]])
        assert np.isfinite(mean[0])


class TestNormalization:
    def test_constant_targets_handled(self):
        X = np.linspace(0, 1, 5)[:, None]
        y = np.full(5, 3.0)
        gp = GaussianProcessRegressor(RBF(0.3), optimize_hyperparameters=False).fit(X, y)
        assert gp.predict([[0.5]])[0] == pytest.approx(3.0, abs=1e-6)

    def test_unnormalized_mode(self):
        X = np.linspace(0, 1, 5)[:, None]
        y = smooth_fn(X) + 10.0
        gp = GaussianProcessRegressor(
            RBF(0.3), noise=1e-8, normalize_y=False, optimize_hyperparameters=False
        ).fit(X, y)
        np.testing.assert_allclose(gp.predict(X), y, atol=1e-3)


# ---------------------------------------------------------------------------
# Row independence: the acquisition predicts only live candidate rows and
# relies on each row's posterior equalling its full-lattice value exactly.
# ---------------------------------------------------------------------------
_LATTICE_BOUNDS = (8, 8, 8, 8, 8)

# Fits the search's surrogate (rounded Matern-5/2 over a 59 048-cell
# 5-family lattice, 40 observations) and prints a hash of the full-lattice
# posterior.  Shared by the in-process fixture and the thread-count check.
_LATTICE_SCRIPT = """
import hashlib
import numpy as np
from repro.core.search_space import SearchSpace
from repro.gp.kernels import Matern52, RoundedKernel
from repro.gp.regression import GaussianProcessRegressor

BOUNDS = {bounds!r}

def lattice_gp():
    space = SearchSpace(("g4dn", "c5", "r5n", "m5", "t3"), BOUNDS)
    kernel = RoundedKernel(Matern52(0.3), scale=np.asarray(BOUNDS, dtype=float))
    rng = np.random.default_rng(3)
    unit = space.grid_unit()
    X = unit[rng.choice(unit.shape[0], size=40, replace=False)]
    y = np.sin(3.0 * X).sum(axis=1) - X[:, 0] * X[:, 2]
    gp = GaussianProcessRegressor(kernel, noise=1e-5, n_restarts=1, seed=0).fit(X, y)
    return gp, kernel, unit

def full_hash():
    gp, kernel, unit = lattice_gp()
    mean, std = gp.predict(kernel.precompute_input(unit), return_std=True)
    return hashlib.sha256(mean.tobytes() + std.tobytes()).hexdigest()
""".format(bounds=_LATTICE_BOUNDS)


@pytest.fixture(scope="module")
def lattice_posterior():
    namespace: dict = {}
    exec(_LATTICE_SCRIPT, namespace)
    gp, kernel, unit = namespace["lattice_gp"]()
    mean, std = gp.predict(kernel.precompute_input(unit), return_std=True)
    return gp, kernel, unit, mean, std


def _subset_posterior(lattice_posterior, rows):
    gp, kernel, unit, _, _ = lattice_posterior
    return gp.predict(kernel.precompute_input(unit[rows]), return_std=True)


class TestRowIndependentPredict:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("size", [1, 2, 3, 17, 1000, 20_000])
    def test_random_subset_matches_full_lattice(self, lattice_posterior, seed, size):
        _, _, unit, mean, std = lattice_posterior
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(unit.shape[0], size=size, replace=False))
        sub_mean, sub_std = _subset_posterior(lattice_posterior, rows)
        np.testing.assert_array_equal(sub_mean, mean[rows])
        np.testing.assert_array_equal(sub_std, std[rows])

    @pytest.mark.parametrize("tail", [1, 2, 3, 7, 64, 1001])
    def test_trailing_rows_match_full_lattice(self, lattice_posterior, tail):
        _, _, unit, mean, std = lattice_posterior
        rows = np.arange(unit.shape[0] - tail, unit.shape[0])
        sub_mean, sub_std = _subset_posterior(lattice_posterior, rows)
        np.testing.assert_array_equal(sub_mean, mean[rows])
        np.testing.assert_array_equal(sub_std, std[rows])

    def test_full_lattice_hash_independent_of_blas_threads(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = _LATTICE_SCRIPT + "\nprint(full_hash())\n"
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            hashes.append(done.stdout.strip())
        assert hashes[0] == hashes[1]


# ---------------------------------------------------------------------------
# The lean L-BFGS-B loop must take SciPy's iterates exactly, and the import
# probe must route every fit through optimize.minimize when it cannot.
# ---------------------------------------------------------------------------
_KERNELS = {
    "rounded": lambda d: RoundedKernel(Matern52(0.3), scale=np.full(d, 8.0)),
    "scaled": lambda d: ConstantScale(Matern52(0.3), 1.0),
    "noisy": lambda d: Matern52(0.3) + WhiteNoise(1e-4),
}


def _lattice_gp(n, d, kernel, seed, *, nan_target=False):
    """An unoptimized GP on ``n`` lattice-shaped rows (Ribbon's inputs)."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 9, size=(n, d)) / 8.0
    y = np.sin(3.0 * X).sum(axis=1) + 0.1 * rng.normal(size=n)
    gp = GaussianProcessRegressor(
        _KERNELS[kernel](d), noise=1e-5, optimize_hyperparameters=False
    ).fit(X, y)
    if nan_target:
        gp._y = gp._y.copy()
        gp._y[0] = np.nan  # every likelihood is non-finite: the 1e25 branch
    return gp


def _assert_same_run(fun, x0, bounds, maxiter):
    lean = regression._lbfgsb_lean(fun, x0, bounds, maxiter)
    ref = optimize.minimize(
        fun,
        x0,
        method="L-BFGS-B",
        jac=True,
        bounds=bounds,
        options={"maxiter": maxiter},
    )
    np.testing.assert_array_equal(lean.x, ref.x)
    assert lean.fun == ref.fun
    assert (lean.nit, lean.nfev) == (ref.nit, ref.nfev)
    return lean


class TestLeanLBFGSB:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 40),
        d=st.integers(1, 3),
        kernel=st.sampled_from(sorted(_KERNELS)),
        seed=st.integers(0, 2**16),
        start=st.sampled_from(["interior", "lower", "upper"]),
        failure=st.sampled_from(["none", "region", "everywhere"]),
        maxiter=st.sampled_from([2, 100]),
    )
    def test_matches_scipy_bit_for_bit(
        self, n, d, kernel, seed, start, failure, maxiter
    ):
        gp = _lattice_gp(n, d, kernel, seed, nan_target=failure == "everywhere")
        fun = gp._make_analytic_objective()
        bounds = gp.kernel.theta_bounds()
        lo, hi = np.array(bounds).T
        x0 = np.random.default_rng(seed).uniform(lo, hi)
        if start == "lower":
            x0[0] = lo[0]
        elif start == "upper":
            x0[-1] = hi[-1]
        if failure == "region":
            # The objective's failure value over part of the box.
            cut = 0.5 * (lo[0] + hi[0])
            inner = fun

            def fun(theta):
                if theta[0] > cut:
                    return 1e25, np.zeros(theta.size)
                return inner(theta)

        res = _assert_same_run(fun, x0, bounds, maxiter)
        assert res.nit <= maxiter
        if failure == "everywhere":
            assert res.fun == 1e25

    def test_infinite_and_one_sided_bounds(self):
        def fun(x):
            return float(np.sum((x - 3.0) ** 2)), 2.0 * (x - 3.0)

        inf = np.inf
        bounds = [(-inf, inf), (0.0, inf), (-inf, 1.0), (-1.0, 2.0)]
        res = _assert_same_run(fun, np.zeros(4), bounds, 100)
        np.testing.assert_allclose(res.x, [3.0, 3.0, 1.0, 2.0], atol=1e-6)

    def test_probe_falls_back_on_mismatch(self, monkeypatch):
        lean = regression._lbfgsb_lean

        def off_by_one(*args, **kwargs):
            res = lean(*args, **kwargs)
            res.nfev += 1
            return res

        monkeypatch.setattr(regression, "_lbfgsb_lean", off_by_one)
        assert not regression._probe_lean_lbfgsb()

    def test_probe_falls_back_on_error(self, monkeypatch):
        monkeypatch.setattr(regression, "_lbfgsb", None)  # setulb is gone
        assert not regression._probe_lean_lbfgsb()

    def test_fit_counters(self):
        gp = _lattice_gp(12, 2, "rounded", 0)
        calls = []
        make = gp._make_analytic_objective

        def counting():
            fun = make()

            def wrapped(theta):
                calls.append(1)
                return fun(theta)

            return wrapped

        gp._make_analytic_objective = counting
        gp.optimize_hyperparameters = True
        gp.n_restarts = 2
        gp.fit(gp.X_train, gp.y_train)
        assert gp.fit_runs == 3
        assert gp.fit_evaluations == len(calls)


def _toy_search(seed):
    model = make_toy_model(arrival_rate_qps=400.0)
    trace = make_toy_trace(model, n=600, seed=5)
    space = SearchSpace(("g4dn", "t3"), (4, 6))
    evaluator = ConfigurationEvaluator(
        model,
        trace,
        RibbonObjective(space, qos_rate_target=0.95),
        result_cache=SimulationResultCache(maxsize=0),
    )
    return RibbonOptimizer(max_samples=25, seed=seed).search(evaluator)


def _raise(*args, **kwargs):
    raise AssertionError("the lean loop ran on the fallback path")


@pytest.mark.parametrize("seed", [0, 3])
def test_search_identical_on_the_fallback_path(monkeypatch, seed):
    assert regression._LEAN_LBFGSB, "import probe fell back"
    lean = _toy_search(seed)
    # Force the fallback the way a drifted SciPy would: the probe fails,
    # and from then on no fit may touch the lean loop.
    monkeypatch.setattr(regression, "_lbfgsb_lean", _raise)
    monkeypatch.setattr(regression, "_LEAN_LBFGSB", regression._probe_lean_lbfgsb())
    assert not regression._LEAN_LBFGSB
    public = _toy_search(seed)
    assert [r.pool.counts for r in public.history] == [
        r.pool.counts for r in lean.history
    ]
    assert public.best.pool.counts == lean.best.pool.counts
    for key in ("gp_fit_runs", "gp_fit_evaluations"):
        assert public.metadata[key] == lean.metadata[key] > 0
