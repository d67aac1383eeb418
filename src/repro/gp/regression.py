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
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy import optimize
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from repro.gp.kernels import Kernel, PreparedInput, _as_2d, concat_prepared

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

# `optimize.minimize(..., method="L-BFGS-B", jac=True)` resolves to exactly
# this call chain; invoking it directly skips the per-call method dispatch
# and bounds standardization, which add up across a search's many small
# refits.  Results are identical; if the scipy layout ever changes we fall
# back to the public entry point.
try:  # pragma: no cover - import-time feature detection
    from scipy.optimize._lbfgsb_py import (
        _minimize_lbfgsb as _LBFGSB_DIRECT,
    )
    from scipy.optimize._optimize import MemoizeJac as _MemoizeJac
except ImportError:  # pragma: no cover
    _LBFGSB_DIRECT = None
    _MemoizeJac = None


def _minimize_lbfgsb(fun, x0, jac, bounds, maxiter: int):
    """``optimize.minimize`` L-BFGS-B with the dispatch layer peeled off."""
    if _LBFGSB_DIRECT is None:
        return optimize.minimize(
            fun,
            x0,
            method="L-BFGS-B",
            jac=jac,
            bounds=bounds,
            options={"maxiter": maxiter},
        )
    try:
        if jac is True:
            memo = _MemoizeJac(fun)
            return _LBFGSB_DIRECT(
                memo, x0, jac=memo.derivative, bounds=bounds, maxiter=maxiter
            )
        return _LBFGSB_DIRECT(fun, x0, jac=jac, bounds=bounds, maxiter=maxiter)
    except TypeError:
        # Private-API signature drift in a future scipy: use the public
        # entry point (identical results, slightly more per-call overhead).
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
        ``K^-1`` solve — is hoisted out of the L-BFGS-B evaluation loop.
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
        p = kernel.n_params
        const = 0.5 * n * _LOG_2PI
        kernel_ws: dict = {}

        def neg_lml_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
            kernel.set_theta(theta)
            K, grads = kernel.eval_and_gradient_state(state, kernel_ws)
            Kn = K + noise_eye
            L, info = _POTRF(Kn, lower=1, clean=1, overwrite_a=1)
            if info != 0:
                try:
                    L = self._stable_cholesky(K + noise_eye)
                except sla.LinAlgError:
                    return 1e25, np.zeros(p)
            sol, _ = _POTRS(L, rhs, lower=1)
            alpha = sol[:, 0]
            lml = float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - const)
            if not np.isfinite(lml):
                return 1e25, np.zeros(p)
            # d lml / d theta_j = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta_j)
            W = alpha[:, None] * alpha
            W -= sol[:, 1:]
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
            res = _minimize_lbfgsb(
                fun, np.clip(x0, lows, highs), jac=jac, bounds=bounds, maxiter=100
            )
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
