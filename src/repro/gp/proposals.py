"""Pluggable proposal engines for the BO acquisition layer.

The optimizer's "pick the next configuration(s)" step is factored out of
:class:`~repro.core.optimizer.RibbonOptimizer` into a small protocol so
batch proposers and streaming acquisition maximizers plug in without
touching the search loop:

* :class:`AcquisitionContext` — the per-search state every engine reads
  and writes: observations (normalized to the unit cube), the set of
  already-sampled lattice cells, the live candidate cells, the persistent
  surrogate of the ``refit_period`` schedule, the prune set, and the
  lattice view;
* :class:`LatticeView` — candidate access in two regimes.  Small spaces
  keep the materialized grid and a shrinking ascending array of live
  (unsampled, unpruned) cell indices: sampled cells and the prune set only
  ever grow, so each proposal re-filters only the cells still live.
  Large spaces (``10^6+`` cells, 5+ families) stream the lattice in
  blocks via :meth:`SearchSpace.iter_grid`, so the acquisition argmax
  holds at most ``block_size`` rows at a time and the full grid is never
  materialized;
* :class:`SequentialEI` — one GP update + one EI argmax per proposal,
  with the masking, flat-acquisition fallback and random tie-breaking of
  the original ``RibbonOptimizer._propose`` (golden-tested against the
  recorded search sequences);
* :class:`ConstantLiarQEI` — a q-point batch via constant-liar fantasy
  observations.  One surrogate update and one (mean + std) predict over
  the live candidates per *batch*; each proposal after the first
  conditions a fantasy copy of the GP on the lie value through the
  existing rank-1 Cholesky
  :meth:`~repro.gp.regression.GaussianProcessRegressor.add_observation`
  and refreshes the candidates' *mean* (the std is paid once and
  amortized over the q proposals).  With ``q=1`` no fantasy is ever
  applied, so the proposal — and the RNG stream — is bit-identical to
  :class:`SequentialEI`.

Every sweep — both engines, both regimes — predicts only candidate rows.
The GP posterior is row-local (a row's mean and std do not depend on the
other rows of the call), so a candidate's EI equals its full-lattice value
bit for bit, and the argmax, its ties and its one ``rng.choice`` draw are
those of a full-lattice sweep masked to the candidates.

Determinism contract: engines draw only from the context's generator, in
a fixed order (surrogate seed draw on refits, one tie-break draw per
proposal), so equal seeds give equal proposal sequences regardless of
evaluation parallelism downstream.
"""

from __future__ import annotations

import abc
import copy
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.gp.acquisition import expected_improvement
from repro.gp.kernels import Kernel
from repro.gp.regression import GaussianProcessRegressor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.pruning import PruneSet
    from repro.core.search_space import SearchSpace

__all__ = [
    "AcquisitionContext",
    "ConstantLiarQEI",
    "LatticeView",
    "ProposalEngine",
    "SequentialEI",
    "available_proposal_engines",
    "resolve_proposal_engine",
]


class LatticeView:
    """Acquisition-side access to a search space's candidate lattice.

    ``stream`` picks the regime: ``"never"`` forces the materialized grid,
    ``"always"`` forces block streaming, and ``"auto"`` (default) streams
    only when the lattice exceeds :data:`AUTO_STREAM_CELLS` cells.
    """

    #: ``stream="auto"`` switches to block streaming above this many cells.
    AUTO_STREAM_CELLS = 200_000
    #: Default rows per streamed block (bounds acquisition peak memory).
    DEFAULT_BLOCK_SIZE = 65_536

    def __init__(
        self,
        space: "SearchSpace",
        kernel: Kernel,
        *,
        stream: str = "auto",
        block_size: int | None = None,
    ):
        if stream not in ("auto", "never", "always"):
            raise ValueError(
                f"stream must be 'auto', 'never' or 'always', got {stream!r}"
            )
        block = int(block_size) if block_size is not None else self.DEFAULT_BLOCK_SIZE
        if block < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size!r}")
        self.space = space
        self.block_size = block
        self._kernel = kernel
        self.streaming = stream == "always" or (
            stream == "auto" and space.n_configurations > self.AUTO_STREAM_CELLS
        )

    @property
    def n_cells(self) -> int:
        return self.space.n_configurations

    def grid(self) -> np.ndarray:
        """The materialized lattice (never called in the streaming regime)."""
        return self.space.grid()

    def iter_blocks(self):
        """Yield ``(start, counts_block)`` lattice chunks.

        Block rows equal the corresponding materialized-grid rows, so a
        block-wise sweep visits exactly the cells a full-grid sweep does,
        in the same order.
        """
        return self.space.iter_grid(self.block_size)

    def prepare(self, rows: np.ndarray):
        """Kernel-prepared unit-cube view of some lattice rows.

        Normalization and kernel preparation are per row, so the result
        equals the same rows of a whole-lattice preparation bit for bit.
        """
        return self._kernel.precompute_input(self.space.normalize(rows))

    def counts_at(self, index: int) -> tuple[int, ...]:
        return self.space.counts_at(index)


class AcquisitionContext:
    """Per-search state shared between the optimizer loop and its engine.

    Owns the observation lists (unit-cube inputs + objective values), the
    sampled-cell index set, the persistent surrogate of the
    ``refit_period`` schedule, and the candidate filtering (sampled cells
    plus the active prune set).  All randomness flows through ``rng``.
    ``acquisition_rows`` counts the rows the acquisition has scored: each
    sweep adds one per candidate cell it predicts.  ``gp_fit_runs`` and
    ``gp_fit_evaluations`` count the surrogate refits' L-BFGS-B runs and
    likelihood evaluations.
    """

    def __init__(
        self,
        space: "SearchSpace",
        kernel: Kernel,
        *,
        rng: np.random.Generator,
        make_kernel: Callable[[], Kernel],
        prune: "PruneSet | None" = None,
        gp_noise: float = 1e-5,
        refit_period: int = 1,
        stream: str = "auto",
        block_size: int | None = None,
    ):
        self.space = space
        self.rng = rng
        self.prune = prune
        self.gp_noise = float(gp_noise)
        self.refit_period = int(refit_period)
        self.lattice = LatticeView(space, kernel, stream=stream, block_size=block_size)
        self._make_kernel = make_kernel
        self._bounds_vec = np.asarray(space.bounds, dtype=float)
        self.observations_x: list[np.ndarray] = []
        self.observations_y: list[float] = []
        self.sampled_idx: set[int] = set()
        self.acquisition_rows = 0
        self.gp_fit_runs = 0
        self.gp_fit_evaluations = 0
        # Materialized regime: the live candidates as ascending cell indices
        # and every cell's cost, both built on first use by candidates().
        self._live: np.ndarray | None = None
        self._costs: np.ndarray | None = None
        # Persistent surrogate for refit_period > 1:
        # [gp, n_obs_incorporated, n_obs_at_last_full_refit].
        self._surrogate: list = [None, 0, 0]

    # -- observations ----------------------------------------------------------
    def unit_row(self, counts) -> np.ndarray:
        """A lattice vector normalized exactly as training inputs are."""
        return np.asarray(counts, dtype=float) / self._bounds_vec

    def add_pseudo_observation(self, counts, objective: float) -> None:
        """Inject an estimated objective value (warm starts); not sampled."""
        self.observations_x.append(self.unit_row(counts))
        self.observations_y.append(float(objective))

    def observe(self, counts, objective: float) -> None:
        """Record a measured evaluation and mark its lattice cell sampled."""
        idx = self.space.index_of(counts)
        if idx is not None:
            self.sampled_idx.add(idx)
        self.observations_x.append(self.unit_row(counts))
        self.observations_y.append(float(objective))

    @property
    def n_observations(self) -> int:
        return len(self.observations_y)

    def best_observed(self) -> float:
        return float(np.max(self.observations_y))

    # -- candidate filtering ---------------------------------------------------
    def candidates(self) -> np.ndarray:
        """Ascending indices of the unsampled, unpruned cells (materialized).

        Equals ``np.flatnonzero(self.candidate_mask())``.  The sampled set
        and the prune set only grow, so the previous answer is filtered
        instead of the whole lattice: only cells still live are checked
        against the current sampled set (cells added straight to
        ``sampled_idx`` included) and prune set.  Costs are computed once
        over the whole lattice, so a cell meets the cost threshold with
        the value the full mask would give it.
        """
        grid = self.lattice.grid()
        live = self._live
        if live is None:
            live = np.arange(grid.shape[0])
        if self.sampled_idx:
            sampled = np.fromiter(self.sampled_idx, np.int64, len(self.sampled_idx))
            live = live[~np.isin(live, sampled)]
        if self.prune is not None and live.size:
            if self._costs is None:
                self._costs = self.prune.costs(grid)
            live = live[~self.prune.mask(grid[live], self._costs[live])]
        self._live = live
        return live

    def candidate_mask(self) -> np.ndarray:
        """Unsampled-and-unpruned mask over the materialized grid, rebuilt
        from scratch (the reference :meth:`candidates` must equal)."""
        grid = self.lattice.grid()
        mask = np.ones(grid.shape[0], dtype=bool)
        if self.sampled_idx:
            mask[list(self.sampled_idx)] = False
        if self.prune is not None:
            mask &= ~self.prune.mask(grid)
        return mask

    def block_mask(self, start: int, block: np.ndarray) -> np.ndarray:
        """The :meth:`candidate_mask` restricted to one streamed block."""
        mask = np.ones(block.shape[0], dtype=bool)
        if self.sampled_idx:
            stop = start + block.shape[0]
            local = [i - start for i in self.sampled_idx if start <= i < stop]
            if local:
                mask[local] = False
        if self.prune is not None:
            mask &= ~self.prune.mask(block)
        return mask

    def random_unsampled(self) -> int | None:
        """A uniformly random candidate cell index (initial design).

        The streaming regime draws in two block-bounded passes — count
        the candidates, draw a position, find it — so peak memory stays
        O(block_size).  ``Generator.choice(k)`` and ``choice(array)``
        consume the generator identically (``array[choice(len(array))]``
        == ``choice(array)``), so both regimes draw the same cell; the
        streamed-vs-materialized equivalence tests pin that.
        """
        if not self.lattice.streaming:
            idx = self.candidates()
            if idx.size == 0:
                return None
            return int(self.rng.choice(idx))
        n_candidates = sum(
            int(self.block_mask(start, block).sum())
            for start, block in self.lattice.iter_blocks()
        )
        if n_candidates == 0:
            return None
        position = int(self.rng.choice(n_candidates))
        passed = 0
        for start, block in self.lattice.iter_blocks():
            local = np.flatnonzero(self.block_mask(start, block))
            if position < passed + local.size:
                return int(start + local[position - passed])
            passed += local.size
        raise AssertionError("candidate count changed mid-draw")  # pragma: no cover

    def n_pruned(self) -> int:
        """Currently pruned cell count (streaming-safe metadata)."""
        if self.prune is None:
            return 0
        if not self.lattice.streaming:
            return self.prune.n_pruned(self.lattice.grid())
        return sum(
            int(self.prune.mask(block).sum()) for _, block in self.lattice.iter_blocks()
        )

    def counts_at(self, index: int) -> tuple[int, ...]:
        return self.space.counts_at(index)

    # -- surrogate lifecycle ---------------------------------------------------
    def surrogate_gp(self) -> GaussianProcessRegressor:
        """The surrogate for this iteration (refit or incremental update).

        With ``refit_period=1`` a fresh GP is built and fully refit every
        call (the paper's schedule).  Otherwise the previous GP persists
        and new observations enter through ``add_observation`` (rank-1
        Cholesky border) until ``refit_period`` samples have accumulated,
        when hyperparameters are re-optimized from scratch.
        """
        gp, n_included, n_last_refit = self._surrogate
        n_obs = len(self.observations_y)
        if (
            self.refit_period > 1
            and gp is not None
            and n_obs - n_last_refit < self.refit_period
        ):
            for i in range(n_included, n_obs):
                gp.add_observation(self.observations_x[i], self.observations_y[i])
            self._surrogate[1] = n_obs
            return gp
        X = np.vstack(self.observations_x)
        y = np.asarray(self.observations_y, dtype=float)
        gp = GaussianProcessRegressor(
            self._make_kernel(),
            noise=self.gp_noise,
            optimize_hyperparameters=n_obs >= 4,
            n_restarts=1,
            seed=int(self.rng.integers(2**31 - 1)),
        )
        gp.fit(X, y)
        self.gp_fit_runs += gp.fit_runs
        self.gp_fit_evaluations += gp.fit_evaluations
        self._surrogate[:] = [gp, n_obs, n_obs]
        return gp


def _score(
    ctx: AcquisitionContext,
    gp: GaussianProcessRegressor,
    rows: np.ndarray,
    best_observed: float,
    mean_gp: GaussianProcessRegressor | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """EI and posterior std over some candidate lattice rows (one sweep).

    ``mean_gp`` (the constant-liar fantasy surrogate) overrides the
    posterior *mean* only, keeping ``gp``'s std.
    """
    prepared = ctx.lattice.prepare(rows)
    mean, std = gp.predict(prepared, return_std=True)
    if mean_gp is not None:
        mean = mean_gp.predict(prepared)
    ctx.acquisition_rows += rows.shape[0]
    return expected_improvement(mean, std, best_observed=best_observed), std


def _argmax(ei: np.ndarray, std: np.ndarray, rng: np.random.Generator) -> int:
    """Position of the EI argmax over candidate rows, with the exact tie rules.

    EI ties within ``1e-9`` relative of the maximum; when the acquisition
    is flat, the highest-variance candidate (``1e-15`` absolute ties, pure
    exploration).  One ``rng.choice`` draw either way.  Positions ascend
    with cell index, so the draw picks the cell a full-lattice sweep
    masked to the candidates would.
    """
    best = float(ei.max())
    if not np.isfinite(best) or best <= 0.0:
        top = np.flatnonzero(std >= std.max() - 1e-15)
        return int(rng.choice(top))
    top = np.flatnonzero(ei >= best * (1.0 - 1e-9))
    return int(rng.choice(top))


class _TieTracker:
    """Running max + tie set over a streamed score sweep.

    Collects ``(index, value)`` pairs whose value is within the tie
    tolerance of the running maximum; :meth:`ties` re-filters against the
    final maximum, so the result equals ``np.flatnonzero(score >=
    threshold(max))`` over the concatenated sweep — same values, same
    ascending index order as the materialized argmax.
    """

    def __init__(
        self,
        *,
        rel: float | None = None,
        abs_: float | None = None,
        positive_only: bool = False,
    ):
        self._rel = rel
        self._abs = abs_
        # Drop non-positive values entirely: the EI selection rule only
        # consults ties when the maximum is > 0 (otherwise the std
        # fallback runs), so ties at exactly 0.0 are dead weight — and on
        # a flat acquisition they would otherwise accumulate one entry
        # per lattice cell, breaking the block-bounded memory contract.
        self._positive_only = positive_only
        self.best = -np.inf
        self._idx: list[np.ndarray] = []
        self._val: list[np.ndarray] = []
        self._stored = 0

    def _threshold(self) -> float:
        if not np.isfinite(self.best):
            return np.inf
        if self._rel is not None:
            return self.best * (1.0 - self._rel)
        return self.best - self._abs

    def update(self, start: int, values: np.ndarray) -> None:
        m = float(values.max()) if values.size else -np.inf
        if m > self.best:
            self.best = m
        keep = values >= self._threshold()
        if self._positive_only:
            keep &= values > 0.0
        if keep.any():
            local = np.flatnonzero(keep)
            self._idx.append(start + local)
            self._val.append(values[local])
            self._stored += local.size
            if self._stored > 4 * max(values.size, 1024):
                self._compact()

    def _compact(self) -> None:
        idx = np.concatenate(self._idx)
        val = np.concatenate(self._val)
        keep = val >= self._threshold()
        self._idx, self._val = [idx[keep]], [val[keep]]
        self._stored = int(keep.sum())

    def ties(self) -> np.ndarray:
        """Indices tied with the final maximum, ascending."""
        if not self._idx:
            return np.empty(0, dtype=np.int64)
        idx = np.concatenate(self._idx)
        val = np.concatenate(self._val)
        return idx[val >= self._threshold()]


def _stream_argmax(
    ctx: AcquisitionContext,
    gp: GaussianProcessRegressor,
    best_observed: float,
    exclude: set[int] | None = None,
    mean_gp: GaussianProcessRegressor | None = None,
) -> int | None:
    """One block-streamed EI argmax pass (grid never materialized).

    Returns the selected cell index, or ``None`` when no candidate cell
    remains.  Each block predicts only its candidate rows; the tie
    trackers see the block with ``-inf`` at the other rows, so the ties,
    the flat-acquisition fallback and the one ``rng.choice`` draw are
    those of :func:`_argmax` over the whole candidate set.
    """
    ei_ties = _TieTracker(rel=1e-9, positive_only=True)
    std_ties = _TieTracker(abs_=1e-15)
    any_candidates = False
    for start, block in ctx.lattice.iter_blocks():
        mask = ctx.block_mask(start, block)
        if exclude:
            stop = start + block.shape[0]
            picked = [i - start for i in exclude if start <= i < stop]
            if picked:
                mask[picked] = False
        local = np.flatnonzero(mask)
        if local.size == 0:
            continue
        any_candidates = True
        ei, std = _score(ctx, gp, block[local], best_observed, mean_gp)
        for tracker, values in ((ei_ties, ei), (std_ties, std)):
            scattered = np.full(block.shape[0], -np.inf)
            scattered[local] = values
            tracker.update(start, scattered)
    if not any_candidates:
        return None
    best = ei_ties.best
    if not np.isfinite(best) or best <= 0.0:
        return int(ctx.rng.choice(std_ties.ties()))
    return int(ctx.rng.choice(ei_ties.ties()))


class ProposalEngine(abc.ABC):
    """Strategy for turning the current surrogate into proposal(s)."""

    #: Registry/reporting name.
    name: str = "proposal-engine"
    #: Whether :meth:`propose` can return more than one point per call.
    supports_batch: bool = False

    @abc.abstractmethod
    def propose(self, ctx: AcquisitionContext, q: int = 1) -> list[int]:
        """Up to ``q`` unsampled lattice cell indices to evaluate next.

        An empty list means no candidate cells remain (the search stops).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SequentialEI(ProposalEngine):
    """One EI-argmax proposal per GP update — the paper's schedule.

    Bit-identical to the pre-refactor ``RibbonOptimizer._propose``: same
    surrogate build/update order, same masking, same flat-acquisition
    fallback, same tie tolerance, same RNG draws.  ``q`` is ignored
    (always a single proposal).
    """

    name = "sequential-ei"
    supports_batch = False

    def propose(self, ctx: AcquisitionContext, q: int = 1) -> list[int]:
        if ctx.lattice.streaming:
            gp = ctx.surrogate_gp()
            idx = _stream_argmax(ctx, gp, ctx.best_observed())
            return [] if idx is None else [idx]
        cand = ctx.candidates()
        if cand.size == 0:
            return []
        gp = ctx.surrogate_gp()
        ei, std = _score(ctx, gp, ctx.lattice.grid()[cand], ctx.best_observed())
        return [int(cand[_argmax(ei, std, ctx.rng)])]


class ConstantLiarQEI(ProposalEngine):
    """q-point batch EI via constant-liar fantasy observations.

    The surrogate is updated once per batch and one (mean + std) predict
    over the live candidates is paid once; each subsequent proposal
    conditions a *fantasy copy* of the GP on a constant lie value at the
    previous pick through the rank-1 Cholesky ``add_observation`` and
    refreshes the mean of the candidates still unpicked (O(C·n) per
    fantasy for C candidates, against the O(C·n^2) std predict paid
    once).  The real surrogate never sees a fantasy — after the batch is
    evaluated, measured objectives enter through the normal schedule.

    ``lie`` picks the fantasy value from the current observations:
    ``"min"`` (default, the pessimistic CL-min — steers later picks away
    from the fantasized region without inflating the incumbent),
    ``"mean"`` or ``"max"``.

    With ``q=1`` no fantasy machinery runs and proposals are
    bit-identical to :class:`SequentialEI` (the ``batch_size=1``
    contract).  On streamed lattices each proposal runs its own
    block-wise argmax pass with the *same* acquisition definition —
    fantasy mean over the pre-batch std — so the streamed and
    materialized regimes propose the same points, with peak memory still
    bounded by the block size (the streamed regime trades the
    once-per-batch std amortization for that memory bound).
    """

    name = "constant-liar-qei"
    supports_batch = True

    LIES = ("min", "mean", "max")

    def __init__(self, lie: str = "min"):
        if lie not in self.LIES:
            raise ValueError(
                f"lie must be one of {', '.join(map(repr, self.LIES))}, got {lie!r}"
            )
        self.lie = lie

    def _lie_value(self, ctx: AcquisitionContext) -> float:
        y = np.asarray(ctx.observations_y, dtype=float)
        if self.lie == "min":
            return float(y.min())
        if self.lie == "max":
            return float(y.max())
        return float(y.mean())

    def propose(self, ctx: AcquisitionContext, q: int = 1) -> list[int]:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q!r}")
        if ctx.lattice.streaming:
            return self._propose_streaming(ctx, q)
        cand = ctx.candidates()
        if cand.size == 0:
            return []
        gp = ctx.surrogate_gp()
        best_observed = ctx.best_observed()
        rows = ctx.lattice.grid()[cand]
        ei, std = _score(ctx, gp, rows, best_observed)
        selected: list[int] = []
        fantasy = None
        for j in range(q):
            pos = _argmax(ei, std, ctx.rng)
            selected.append(int(cand[pos]))
            if j + 1 == q or cand.size == 1:
                break
            cand, rows, std = (np.delete(a, pos, axis=0) for a in (cand, rows, std))
            if fantasy is None:
                fantasy = copy.deepcopy(gp)
            fantasy.add_observation(
                ctx.unit_row(ctx.counts_at(selected[-1])), self._lie_value(ctx)
            )
            mean = fantasy.predict(ctx.lattice.prepare(rows))
            ctx.acquisition_rows += cand.size
            ei = expected_improvement(mean, std, best_observed=best_observed)
        return selected

    def _propose_streaming(self, ctx: AcquisitionContext, q: int) -> list[int]:
        gp = ctx.surrogate_gp()
        best_observed = ctx.best_observed()
        selected: list[int] = []
        exclude: set[int] = set()
        fantasy = None
        for j in range(q):
            idx = _stream_argmax(ctx, gp, best_observed, exclude, mean_gp=fantasy)
            if idx is None:
                break
            selected.append(idx)
            exclude.add(idx)
            if j + 1 < q:
                if fantasy is None:
                    fantasy = copy.deepcopy(gp)
                fantasy.add_observation(
                    ctx.unit_row(ctx.counts_at(idx)), self._lie_value(ctx)
                )
        return selected


#: Canonical engine names (plus aliases) -> factory.
_ENGINES: dict[str, Callable[[], ProposalEngine]] = {
    "sequential": SequentialEI,
    "sequential-ei": SequentialEI,
    "ei": SequentialEI,
    "constant-liar": ConstantLiarQEI,
    "constant-liar-qei": ConstantLiarQEI,
    "qei": ConstantLiarQEI,
}


def available_proposal_engines() -> tuple[str, ...]:
    """Recognized proposal-engine names (including aliases), sorted."""
    return tuple(sorted(_ENGINES))


def resolve_proposal_engine(
    spec: "str | ProposalEngine | None", batch_size: int = 1
) -> ProposalEngine:
    """Resolve a name / instance / None into a :class:`ProposalEngine`.

    ``None`` picks the default for the batch size: :class:`SequentialEI`
    for ``batch_size=1`` (the paper's schedule), :class:`ConstantLiarQEI`
    otherwise.  A batch size above 1 with an engine that cannot batch is
    rejected here, before any search runs.
    """
    if spec is None:
        engine: ProposalEngine = (
            SequentialEI() if batch_size <= 1 else ConstantLiarQEI()
        )
    elif isinstance(spec, ProposalEngine):
        engine = spec
    elif isinstance(spec, str):
        key = spec.strip().lower().replace("_", "-").replace(" ", "-")
        factory = _ENGINES.get(key)
        if factory is None:
            raise ValueError(
                f"unknown proposal engine {spec!r}; available: "
                f"{', '.join(available_proposal_engines())}"
            )
        engine = factory()
    else:
        raise TypeError(
            "proposal_engine must be a name, a ProposalEngine instance or "
            f"None, got {type(spec).__name__}"
        )
    if batch_size > 1 and not engine.supports_batch:
        raise ValueError(
            f"proposal engine {engine.name!r} proposes one point at a time; "
            f"batch_size={batch_size} needs a batching engine such as "
            "'constant-liar-qei'"
        )
    return engine
