"""Exact Gaussian process regression.

Standard GP machinery (Rasmussen & Williams ch. 2) implemented directly on
numpy/scipy:

* posterior mean/variance via a Cholesky factorization of
  ``K + sigma_n^2 I`` (jitter-stabilized);
* hyperparameter selection by maximizing the log marginal likelihood with
  multi-restart L-BFGS-B over the kernel's log-space parameter vector.
  Kernels that expose analytic gradients (``has_analytic_gradient``) are
  optimized with exact gradients (``jac=True``, R&W Eq. 5.9) — one kernel
  build per line-search step instead of one per finite-difference probe;
  kernels without them fall back to finite differences.

Hot-path structure: the theta-independent pairwise structure of the
training set (distances, rounding) is prepared once per ``fit`` and reused
by every likelihood evaluation, and :meth:`GaussianProcessRegressor.
add_observation` extends a fitted GP by one observation with a rank-1
Cholesky border (O(n^2)) instead of a refit (O(n^3) per likelihood step).

The fits' matrices are at most ~40x40, so SciPy's per-run bookkeeping
around L-BFGS-B costs about as much as the likelihood itself.
Analytic-gradient fits therefore drive SciPy's compiled ``setulb``
routine (Byrd, Lu, Nocedal & Zhu 1995) through :func:`_lbfgsb_lean`, the
loop ``optimize.minimize(method="L-BFGS-B", jac=True)`` runs, without
that bookkeeping.  An import-time probe checks that the two give the
same iterates on this SciPy; if they do not, every fit goes through
``optimize.minimize``, as finite-difference fits always do.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy import optimize
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from repro.gp.kernels import Kernel, PreparedInput, _as_2d, concat_prepared

try:  # SciPy's compiled L-BFGS-B routine; the import probe below vets it
    from scipy.optimize import _lbfgsb
except ImportError:  # pragma: no cover
    _lbfgsb = None

_LOG_2PI = np.log(2.0 * np.pi)

# Hoisted float64 LAPACK routines: the likelihood optimizer calls them a few
# hundred times per fit, where the scipy wrapper overhead (validation,
# dispatch) costs more than the n<=60 factorizations themselves.  dpotrf /
# dpotrs are exactly what scipy.linalg.cholesky / cho_solve dispatch to, so
# results are bit-identical.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))

# The posterior's triangular solve calls BLAS dtrsm directly.  LAPACK
# dtrtrs (what scipy.linalg.solve_triangular dispatches to) takes another
# path for a single right-hand side, whose last bits can differ from the
# same column solved among others; dtrsm solves every column alike, so a
# predicted row does not depend on how many rows share the call.
(_TRSM,) = get_blas_funcs(("trsm",), (np.empty((1, 1)),))

# L-BFGS-B settings of `optimize.minimize(method="L-BFGS-B")` at its defaults
# (maxcor, ftol, gtol, maxls, maxfun); `_lbfgsb_lean` must match them exactly.
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXFUN = 15000


def _lbfgsb_lean(fun, x0, bounds, maxiter: int) -> optimize.OptimizeResult:
    """L-BFGS-B on ``fun(x) -> (f, g)`` without SciPy's per-run bookkeeping.

    The reverse-communication loop of SciPy's ``_minimize_lbfgsb`` around
    the same ``setulb`` routine, with the same arguments: one evaluation at
    ``x0`` up front, an evaluation request at an unchanged ``x`` answered
    from the last evaluation (as ``ScalarFunction`` does), and the
    ``maxiter`` and ``maxfun`` checks after each iteration.  The iterates,
    ``fun``, ``nit`` and ``nfev`` equal ``optimize.minimize``'s bit for
    bit; :func:`_probe_lean_lbfgsb` checks that once per process.
    """
    lo = np.array([b[0] for b in bounds], float)
    hi = np.array([b[1] for b in bounds], float)
    x = np.clip(np.asarray(x0, dtype=float).ravel(), lo, hi)
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    # setulb's bound codes: 0 none, 1 lower only, 2 both, 3 upper only.
    nbd = np.where(has_lo, np.where(has_hi, 2, 1), np.where(has_hi, 3, 0))
    nbd = nbd.astype(np.int32)
    lo, hi = np.where(has_lo, lo, 0.0), np.where(has_hi, hi, 0.0)
    n, m = x.size, _LBFGSB_M

    def evaluate(xe: np.ndarray):
        fx, gx = fun(xe.copy())
        return float(fx), np.atleast_1d(gx)

    x_eval = x.copy()
    f_eval, g_eval = evaluate(x_eval)
    nfev = 1
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    nit = 0
    while True:
        g = g.astype(np.float64)
        _lbfgsb.setulb(
            m, x, lo, hi, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL,
            wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task,
        )
        if task[0] == 3:  # f and g wanted at x
            if not (x == x_eval).all():  # np.array_equal, minus overhead
                x_eval = x.copy()
                f_eval, g_eval = evaluate(x_eval)
                nfev += 1
            f, g = f_eval, g_eval
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= maxiter:
                task[:] = (5, 504)
            elif nfev > _LBFGSB_MAXFUN:
                task[:] = (5, 502)
        else:
            break
    return optimize.OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev)


def _probe_objective(x: np.ndarray) -> tuple[float, np.ndarray]:
    """Rosenbrock's function and gradient: the drift probe's problem."""
    a, b = x
    r = b - a * a
    f = (1.0 - a) ** 2 + 100.0 * r * r
    return f, np.array([-2.0 * (1.0 - a) - 400.0 * a * r, 200.0 * r])


def _probe_lean_lbfgsb() -> bool:
    """Whether :func:`_lbfgsb_lean` reproduces ``optimize.minimize`` here.

    Runs both on a fixed bounded 2-D problem (the optimum sits on a bound)
    and compares ``x``, ``fun``, ``nit`` and ``nfev`` bit for bit.  Any
    exception or mismatch — a SciPy whose ``setulb`` or loop has drifted —
    answers False.
    """
    x0, bounds = np.array([-1.2, 1.0]), [(-1.5, 0.9), (-0.5, 2.0)]
    try:
        lean = _lbfgsb_lean(_probe_objective, x0, bounds, maxiter=100)
        ref = optimize.minimize(
            _probe_objective,
            x0,
            method="L-BFGS-B",
            jac=True,
            bounds=bounds,
            options={"maxiter": 100},
        )
    except Exception:  # noqa: BLE001 - any failure means "do not use it"
        return False
    return bool(
        np.array_equal(lean.x, ref.x)
        and lean.fun == ref.fun
        and lean.nit == ref.nit
        and lean.nfev == ref.nfev
    )


#: Whether analytic-gradient fits run through :func:`_lbfgsb_lean`; when
#: the import probe fails, every fit goes through ``optimize.minimize``.
_LEAN_LBFGSB = _probe_lean_lbfgsb()


def _run_lbfgsb(fun, x0, jac, bounds, maxiter: int) -> optimize.OptimizeResult:
    """L-BFGS-B as ``optimize.minimize`` runs it, leanly where possible."""
    if jac is True and _LEAN_LBFGSB:
        return _lbfgsb_lean(fun, x0, bounds, maxiter)
    return optimize.minimize(
        fun,
        x0,
        method="L-BFGS-B",
        jac=jac,
        bounds=bounds,
        options={"maxiter": maxiter},
    )


class GaussianProcessRegressor:
    """GP regression with a pluggable kernel.

    Parameters
    ----------
    kernel:
        Covariance function (its hyperparameters are mutated by ``fit`` when
        ``optimize_hyperparameters`` is on).
    noise:
        Observation noise variance ``sigma_n^2`` added to the kernel
        diagonal.  Ribbon's objective evaluations are deterministic given a
        trace, so the default is a small stabilizing value.
    normalize_y:
        Center/scale targets before fitting (restored on prediction).
    optimize_hyperparameters:
        Maximize the log marginal likelihood on ``fit``.
    n_restarts:
        Random restarts for the hyperparameter search.
    seed:
        Seed for restart sampling.
    """

    def __init__(
        self,
        kernel: Kernel,
        noise: float = 1e-6,
        *,
        normalize_y: bool = True,
        optimize_hyperparameters: bool = True,
        n_restarts: int = 2,
        seed: int = 0,
    ):
        if noise <= 0:
            raise ValueError(f"noise must be positive, got {noise!r}")
        self.kernel = kernel
        self.noise = float(noise)
        self.normalize_y = bool(normalize_y)
        self.optimize_hyperparameters = bool(optimize_hyperparameters)
        self.n_restarts = int(n_restarts)
        self._rng = np.random.default_rng(seed)
        self._X: np.ndarray | None = None
        self._pi: PreparedInput | None = None
        self._train_state = None
        self._y: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._L: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        #: L-BFGS-B runs and likelihood evaluations over all fits so far.
        self.fit_runs = 0
        self.fit_evaluations = 0

    # -- fitting -------------------------------------------------------------
    def fit(self, X, y) -> "GaussianProcessRegressor":
        """Condition the GP on observations ``(X, y)``."""
        X = _as_2d(X)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if X.shape[0] == 0:
            raise ValueError("cannot fit a GP on zero observations")
        self._X = X
        self._pi = self.kernel.precompute_input(X)
        self._train_state = self.kernel.cross_state(self._pi, self._pi)
        self._y_raw = y.copy()
        self._set_targets(y)

        if self.optimize_hyperparameters and X.shape[0] >= 3:
            self._optimize_theta()
        self._factorize()
        return self

    def _set_targets(self, y: np.ndarray) -> None:
        if self.normalize_y:
            self._y_mean = float(y.mean())
            std = float(y.std())
            self._y_std = std if std > 1e-12 else 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        self._y = (y - self._y_mean) / self._y_std

    def _ensure_train_state(self):
        if self._train_state is None:
            self._train_state = self.kernel.cross_state(self._pi, self._pi)
        return self._train_state

    def _factorize(self) -> None:
        assert self._pi is not None and self._y is not None
        self._factorize_raw()
        self._alpha = sla.cho_solve((self._L, True), self._y, check_finite=False)

    @staticmethod
    def _stable_cholesky(K: np.ndarray) -> np.ndarray:
        """Cholesky with escalating jitter for near-singular matrices."""
        L, info = _POTRF(K, lower=1, clean=1, overwrite_a=0)
        if info == 0:
            return L
        base = np.mean(np.diag(K)) if K.size else 1.0
        for attempt in range(1, 6):
            jitter = base * 10.0 ** (attempt - 9)
            L, info = _POTRF(
                K + jitter * np.eye(K.shape[0]), lower=1, clean=1, overwrite_a=1
            )
            if info == 0:
                return L
        raise sla.LinAlgError(
            "kernel matrix not positive definite even with jitter; "
            "check for duplicated inputs with inconsistent targets"
        )

    # -- incremental conditioning ---------------------------------------------
    def add_observation(self, x, y: float) -> "GaussianProcessRegressor":
        """Condition on one more observation without refitting.

        Extends the Cholesky factor by a rank-1 border (O(n^2)) and
        recomputes the target normalization and ``alpha``; hyperparameters
        are kept as-is (re-optimizing them requires a full :meth:`fit`).
        The updated posterior matches a from-scratch ``fit`` on the extended
        data with ``optimize_hyperparameters=False`` to numerical precision.
        """
        if self._X is None or self._L is None or self._pi is None:
            raise RuntimeError("call fit() before add_observation()")
        x2 = np.asarray(x, dtype=float)
        if x2.ndim == 1:
            x2 = x2[None, :]  # one observation row (not a 1-D feature column)
        if x2.shape != (1, self._X.shape[1]):
            raise ValueError(
                f"expected one row of dimension {self._X.shape[1]}, "
                f"got shape {x2.shape}"
            )
        pi_new = self.kernel.precompute_input(x2)
        k_vec = self.kernel.eval_state(
            self.kernel.cross_state(self._pi, pi_new)
        ).reshape(-1)
        kxx = float(
            self.kernel.eval_state(self.kernel.cross_state(pi_new, pi_new))[0, 0]
        )
        l12 = sla.solve_triangular(
            self._L, k_vec, lower=True, check_finite=False
        )
        d = kxx + self.noise - float(l12 @ l12)

        n = self._X.shape[0]
        self._X = np.vstack([self._X, x2])
        self._pi = concat_prepared(self._pi, pi_new)
        self._train_state = None  # rebuilt lazily when needed
        self._y_raw = np.append(self._y_raw, float(y))
        if d > 0.0:
            L_new = np.zeros((n + 1, n + 1))
            L_new[:n, :n] = self._L
            L_new[n, :n] = l12
            L_new[n, n] = np.sqrt(d)
            self._L = L_new
        else:
            # The bordered factor lost positive definiteness (e.g. an exactly
            # duplicated input under a rounded kernel): fall back to the
            # jitter-stabilized full factorization.
            self._factorize_raw()
        self._set_targets(self._y_raw)
        self._alpha = sla.cho_solve((self._L, True), self._y, check_finite=False)
        return self

    def _factorize_raw(self) -> None:
        """Full factorization of the current training set (no alpha)."""
        K = self.kernel.eval_state(self._ensure_train_state()).copy()
        K[np.diag_indices_from(K)] += self.noise
        self._L = self._stable_cholesky(K)

    # -- hyperparameter optimization ------------------------------------------
    def log_marginal_likelihood(self, theta: np.ndarray | None = None) -> float:
        """Log marginal likelihood of the (normalized) training targets."""
        if self._pi is None or self._y is None:
            raise RuntimeError("call fit() before log_marginal_likelihood()")
        if theta is not None:
            saved = self.kernel.get_theta()
            self.kernel.set_theta(np.asarray(theta, dtype=float))
        try:
            return self._lml_current_theta()
        finally:
            if theta is not None:
                self.kernel.set_theta(saved)

    def _lml_current_theta(self) -> float:
        K = self.kernel.eval_state(self._ensure_train_state()).copy()
        K[np.diag_indices_from(K)] += self.noise
        try:
            L = self._stable_cholesky(K)
        except sla.LinAlgError:
            return -np.inf
        alpha = sla.cho_solve((L, True), self._y, check_finite=False)
        n = self._y.size
        return float(
            -0.5 * self._y @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * n * _LOG_2PI
        )

    def _make_analytic_objective(self):
        """Negative LML and its exact log-space gradient (R&W Eq. 5.9).

        Built as a closure so everything theta-independent — the kernel's
        prepared train structure, the noise matrix, the identity for the
        ``K^-1`` solve — is hoisted out of the L-BFGS-B evaluation loop,
        and the per-evaluation matrices are written into reused buffers
        (the same ufuncs on the same operands, so the same floats).
        """
        kernel = self.kernel
        state = self._ensure_train_state()
        y = self._y
        n = y.size
        noise_eye = self.noise * np.eye(n)
        # Solve for alpha and K^-1 in one LAPACK call: [y | I] as RHS block.
        rhs = np.empty((n, n + 1), order="F")
        rhs[:, 0] = y
        rhs[:, 1:] = np.eye(n)
        # Fortran order lets dpotrf factor the buffer in place.
        Kn = np.empty((n, n), order="F")
        W = np.empty((n, n))
        p = kernel.n_params
        const = 0.5 * n * _LOG_2PI
        kernel_ws: dict = {}

        def neg_lml_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
            kernel.set_theta(theta)
            K, grads = kernel.eval_and_gradient_state(state, kernel_ws)
            np.add(K, noise_eye, out=Kn)
            L, info = _POTRF(Kn, lower=1, clean=1, overwrite_a=1)
            if info != 0:
                try:
                    L = self._stable_cholesky(K + noise_eye)
                except sla.LinAlgError:
                    return 1e25, np.zeros(p)
            sol, _ = _POTRS(L, rhs, lower=1)
            alpha = sol[:, 0]
            lml = float(-0.5 * y @ alpha - np.log(L.diagonal()).sum() - const)
            if not np.isfinite(lml):
                return 1e25, np.zeros(p)
            # d lml / d theta_j = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta_j)
            np.multiply(alpha[:, None], alpha, out=W)
            np.subtract(W, sol[:, 1:], out=W)
            g = np.empty(p)
            for j, G in enumerate(grads):
                g[j] = 0.5 * np.vdot(W, G)
            return -lml, -g

        return neg_lml_and_grad

    def _optimize_theta(self) -> None:
        bounds = self.kernel.theta_bounds()
        if not bounds:
            return

        if self.kernel.has_analytic_gradient:
            fun, jac = self._make_analytic_objective(), True
        else:
            jac = None

            def fun(theta: np.ndarray) -> float:
                val = self.log_marginal_likelihood(theta)
                return -val if np.isfinite(val) else 1e25

        starts = [self.kernel.get_theta()]
        lows = np.array([b[0] for b in bounds])
        highs = np.array([b[1] for b in bounds])
        for _ in range(self.n_restarts):
            starts.append(self._rng.uniform(lows, highs))

        best_theta, best_val = None, np.inf
        for x0 in starts:
            res = _run_lbfgsb(
                fun, np.clip(x0, lows, highs), jac=jac, bounds=bounds, maxiter=100
            )
            self.fit_runs += 1
            self.fit_evaluations += int(res.nfev)
            if res.fun < best_val:
                best_val, best_theta = float(res.fun), res.x
        if best_theta is not None and np.isfinite(best_val):
            self.kernel.set_theta(best_theta)

    # -- prediction ------------------------------------------------------------
    def predict(self, X, return_std: bool = False):
        """Posterior mean (and optionally standard deviation) at ``X``.

        ``X`` may be a plain ``(m, d)`` array or a :class:`PreparedInput`
        produced by ``kernel.precompute_input``.  Rows are independent: the
        mean and std of a row are bit-identical whichever subset of rows it
        is predicted with.
        """
        if self._pi is None or self._alpha is None or self._L is None:
            raise RuntimeError("call fit() before predict()")
        pi = X if isinstance(X, PreparedInput) else self.kernel.precompute_input(X)
        K_star = self.kernel.eval_state(self.kernel.cross_state(pi, self._pi))
        # einsum, not a BLAS gemv: each row's dot product is reduced on its
        # own, so a row's mean does not depend on which other rows share the
        # call or on the BLAS thread count (acquisition predicts only the
        # live candidate rows and must match the full-lattice values).
        mean = np.einsum("ij,j->i", K_star, self._alpha) * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = _TRSM(1.0, self._L, K_star.T, lower=1)
        # Legacy custom kernels may override diag(X) under the pre-prepared
        # array contract; only the base implementation understands a
        # PreparedInput.
        if type(self.kernel).diag is Kernel.diag:
            prior_var = self.kernel._diag_prepared(pi)
        else:
            prior_var = self.kernel.diag(pi.x)
        var = prior_var - np.sum(v**2, axis=0)
        var = np.maximum(var, 1e-12)
        return mean, np.sqrt(var) * self._y_std

    @property
    def n_train(self) -> int:
        """Number of conditioning observations (0 before fit)."""
        return 0 if self._X is None else int(self._X.shape[0])

    @property
    def X_train(self) -> np.ndarray:
        """Training inputs (after fit)."""
        if self._X is None:
            raise RuntimeError("GP has not been fit")
        return self._X

    @property
    def y_train(self) -> np.ndarray:
        """Training targets in original units (after fit)."""
        if self._y is None:
            raise RuntimeError("GP has not been fit")
        return self._y * self._y_std + self._y_mean
