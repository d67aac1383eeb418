"""Fast FCFS heterogeneous-pool serving engine.

The dispatch policy is the paper's (Sec. 5.1): queries are handled strictly
in arrival order; each query goes to the *first available* instance, where
"first" follows the pool's type order (Table 3).  If no instance is free at
arrival, the query waits in a single FCFS queue for the earliest-free
instance.

Because service times do not depend on the dispatch instant, the whole
simulation reduces to one pass over queries in arrival order, keeping a
``free_at`` clock per instance:

* if some instance is free at the arrival time, pick the lowest-index free
  instance (instances are laid out in type order, so this is exactly the
  type-order preference);
* otherwise the query starts on ``argmin(free_at)`` at that instant,
  breaking ties toward the lowest index.

This is an exact simulation of the queueing system, not an approximation —
the event-heap engine in :mod:`repro.simulator.events` independently verifies
it in the test suite.

Two bit-identical loops implement the pass:

* ``native`` — the scan in C (``_fcfs.c``), built on first use by
  :mod:`repro.simulator._native` with ``-O2 -ffp-contract=off`` and no
  fast-math, and called through :mod:`ctypes` (which releases the GIL).
  It reads the cached read-only service-time matrix, the trace's arrival
  array and the pool's type vector in place, and writes straight into the
  NumPy arrays that back the :class:`SimulationResult`.  It also computes
  the waiting-queue length seen by each arrival: FCFS start times are
  monotone, so that length is ``q - #{j < q : start_j <= t_q}``,
  maintained by one moving pointer over the starts.
* ``python`` — the portable fallback: an O(n log m) loop over two heaps,
  run when the native library cannot be built or loaded
  (:func:`native_error` says why) and under ``dispatch="python"``.

``dispatch="auto"`` (the default) runs the native loop whenever it is
available.  Service times come pre-noised from the per-workload
:class:`~repro.simulator.service.ServiceTimeCache`, and whole simulations
are memoized across evaluators by the process-wide
:class:`~repro.simulator.result_cache.SimulationResultCache`, so a repeated
``(model, trace, pool)`` never reaches either loop.  Per-path run counts are
kept on the simulator and process-wide (:func:`global_dispatch_counters`).
"""

from __future__ import annotations

import threading
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from repro.models.base import ModelProfile
from repro.simulator import _native
from repro.simulator.metrics import SimulationResult
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import (
    SimulationResultCache,
    shared_simulation_cache,
)
from repro.simulator.service import ServiceTimeCache, shared_service_cache
from repro.workload.trace import QueryTrace


def native_available() -> bool:
    """Whether the native dispatch loop is usable (builds it on first call)."""
    return _native.LOADER.function() is not None


def native_error() -> str | None:
    """Why the native loop could not be built or loaded, if it failed."""
    return _native.LOADER.error


class DispatchCounters:
    """Thread-safe run counters for the two dispatch loops.

    ``native`` and ``python`` count simulations actually *dispatched* by
    each loop; result-memo hits never dispatch, so they do not count.
    """

    __slots__ = ("_lock", "_counts")

    PATHS = ("native", "python")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(self.PATHS, 0)

    def record(self, path: str) -> None:
        with self._lock:
            self._counts[path] += 1

    def merge(self, counts: dict[str, int]) -> None:
        """Fold a per-path count delta in (cross-process aggregation).

        The process evaluation backend's workers dispatch on their own
        counters and ship the delta back; unknown paths raise so a
        protocol drift cannot silently drop counts.
        """
        unknown = set(counts) - set(self._counts)
        if unknown:
            raise ValueError(f"unknown dispatch paths {sorted(unknown)}")
        with self._lock:
            for path, n in counts.items():
                self._counts[path] += int(n)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            for key in self._counts:
                self._counts[key] = 0


#: Process-wide engagement counters, aggregated across every simulator
#: (in addition to each simulator's own counters).
_GLOBAL_DISPATCH = DispatchCounters()


def global_dispatch_counters() -> DispatchCounters:
    """The process-wide :class:`DispatchCounters` instance."""
    return _GLOBAL_DISPATCH


class InferenceServingSimulator:
    """Serves query traces on pool configurations for one model.

    Parameters
    ----------
    model:
        The model whose latency profiles define service times.
    track_queue:
        Record the waiting-queue length seen by every arrival (needed by the
        load-change detector; a small constant overhead).
    service_cache:
        Service-time matrix cache; defaults to the process-wide shared
        instance so every simulator serving the same workload reuses one
        matrix.  Pass ``ServiceTimeCache(maxsize=0)`` to disable caching.
    dispatch:
        ``"auto"`` (default) runs the native loop, or the Python loop
        when the native library is unavailable; ``"python"`` forces the
        Python loop (the equivalence suites run both on equal inputs).
        The dispatch path is deliberately *not* part of the result-memo
        key: both loops are bit-identical by contract.
    dispatch_counters:
        Engagement-counter sink for this simulator (also mirrored into the
        process-wide :func:`global_dispatch_counters`).  Evaluators and
        runners share one counters object across their forks so sweeps can
        report which loops actually ran.
    result_cache:
        Whole-result memo; defaults to the process-wide shared instance so
        any simulator asked for a ``(model, trace, pool)`` it (or a sibling
        evaluator) already served returns the stored
        :class:`SimulationResult` without re-running dispatch.  Pass
        ``SimulationResultCache(maxsize=0)`` to opt out (e.g. when
        benchmarking the dispatch loop itself).
    """

    #: The dispatch-policy set.
    DISPATCH_POLICIES = ("auto", "python")

    def __init__(
        self,
        model: ModelProfile,
        *,
        track_queue: bool = True,
        service_cache: ServiceTimeCache | None = None,
        dispatch: str = "auto",
        result_cache: SimulationResultCache | None = None,
        dispatch_counters: DispatchCounters | None = None,
    ):
        if dispatch not in self.DISPATCH_POLICIES:
            raise ValueError(
                "dispatch must be one of "
                + ", ".join(repr(p) for p in self.DISPATCH_POLICIES)
                + f", got {dispatch!r}"
            )
        self._model = model
        self._track_queue = bool(track_queue)
        self._service_cache = (
            service_cache if service_cache is not None else shared_service_cache()
        )
        self._result_cache = (
            result_cache if result_cache is not None else shared_simulation_cache()
        )
        self._dispatch = dispatch
        self._counters = (
            dispatch_counters if dispatch_counters is not None else DispatchCounters()
        )
        # Memoized pool expansions: searches re-simulate the same lattice
        # vectors, and np.repeat + tolist is measurable per evaluation.
        self._expand_cache: dict[
            tuple[tuple[str, ...], tuple[int, ...]],
            tuple[list[int], tuple[str, ...], np.ndarray],
        ] = {}

    @property
    def model(self) -> ModelProfile:
        return self._model

    @property
    def service_cache(self) -> ServiceTimeCache:
        return self._service_cache

    @property
    def result_cache(self) -> SimulationResultCache:
        return self._result_cache

    @property
    def dispatch(self) -> str:
        """The configured dispatch policy (``auto`` or ``python``)."""
        return self._dispatch

    @property
    def dispatch_counters(self) -> DispatchCounters:
        """The engagement-counter sink this simulator records into."""
        return self._counters

    @property
    def dispatch_counts(self) -> dict[str, int]:
        """Per-path dispatch run counts recorded through this simulator's
        counters (shared with sibling simulators when a counters object
        was passed in)."""
        return self._counters.snapshot()

    @property
    def track_queue(self) -> bool:
        """Whether simulations record the queue length seen per arrival
        (part of the result-memo key; the process evaluation backend
        forwards it to its workers)."""
        return self._track_queue

    def _record_dispatch(self, path: str) -> None:
        self._counters.record(path)
        if self._counters is not _GLOBAL_DISPATCH:
            _GLOBAL_DISPATCH.record(path)

    def merge_dispatch(self, counts: dict[str, int]) -> None:
        """Aggregate a dispatch-count delta produced elsewhere.

        Mirrors :meth:`_record_dispatch` for counts that accrued in a
        worker process: the delta lands on this simulator's counters and
        on the process-wide globals, exactly as if the simulations had
        dispatched here.
        """
        self._counters.merge(counts)
        if self._counters is not _GLOBAL_DISPATCH:
            _GLOBAL_DISPATCH.merge(counts)

    def cached_result(
        self, trace: QueryTrace, pool: PoolConfiguration
    ) -> SimulationResult | None:
        """The memoized result for ``(trace, pool)``, or None on a miss.

        Consults the result memo exactly as :meth:`simulate` would
        (including hit/miss stats and the disk tier, when configured);
        a disabled memo always misses.
        """
        memo = self._result_cache
        if not memo.enabled:
            return None
        return memo.get(
            self._model, trace, pool.families, pool.counts, self._track_queue
        )

    def admit_result(
        self,
        trace: QueryTrace,
        pool: PoolConfiguration,
        result: SimulationResult,
    ) -> SimulationResult:
        """Admit an externally produced result into the result memo.

        The process evaluation backend simulates in workers and feeds the
        results back through here: the memo freezes the arrays and keeps
        the first-stored entry canonical (insert-if-absent), exactly as
        :meth:`simulate` does for locally dispatched results.  With the
        memo disabled the result passes through untouched.
        """
        memo = self._result_cache
        if not memo.enabled:
            return result
        return memo.put(
            self._model, trace, pool.families, pool.counts, self._track_queue, result
        )

    def simulate(
        self, trace: QueryTrace, pool: PoolConfiguration
    ) -> SimulationResult:
        """Serve ``trace`` on ``pool`` and return the measured metrics.

        Raises
        ------
        ValueError
            If the pool is empty (no instance can serve).
        KeyError
            If a pool family has no latency profile for this model.
        """
        if pool.is_empty():
            raise ValueError(f"cannot serve on an empty pool {pool}")
        for fam in pool.families:
            if fam not in self._model.profiles:
                raise KeyError(
                    f"model {self._model.name!r} has no profile for {fam!r}"
                )

        # Whole-result memo: the simulation is deterministic per
        # (model, trace, pool, track_queue), so a repeat — typically a
        # sibling evaluator in a run_many sweep or a load-change fork —
        # skips dispatch entirely.
        memo = self._result_cache
        memoize = memo.enabled
        if memoize:
            hit = memo.get(
                self._model, trace, pool.families, pool.counts, self._track_queue
            )
            if hit is not None:
                return hit

        expand_key = (pool.families, pool.counts)
        expanded = self._expand_cache.get(expand_key)
        if expanded is None:
            type_of_instance, families = pool.expand()
            type_of_instance = np.ascontiguousarray(
                type_of_instance, dtype=np.int64
            )
            expanded = (
                type_of_instance.tolist(),
                tuple(families[i] for i in type_of_instance.tolist()),
                type_of_instance,
            )
            if len(self._expand_cache) < 4096:
                self._expand_cache[expand_key] = expanded
        type_list, instance_family, type_of_instance = expanded
        cache = self._service_cache
        track = self._track_queue
        native = _native.LOADER.function() if self._dispatch == "auto" else None
        if native is not None:
            path = "native"
            _, service_s, wait_s, latency_s, chosen, busy, queue_len, makespan = (
                _native.fcfs_dispatch(
                    native,
                    trace.arrival_s,
                    cache.matrix(self._model, trace, pool.families),
                    type_of_instance,
                    track,
                )
            )
        else:
            path = "python"
            starts, services, chosen, busy, queue_len, makespan = self._run_heap(
                cache.arrival_list(trace),
                cache.rows(self._model, trace, pool.families),
                type_list,
            )
            service_s = np.asarray(services, dtype=float)
            wait_s = np.asarray(starts, dtype=float) - trace.arrival_s
            latency_s = wait_s + service_s
            chosen = np.asarray(chosen, dtype=np.int64)
            busy = np.asarray(busy, dtype=float)
            queue_len = np.asarray(queue_len, dtype=np.int64) if track else None
        result = SimulationResult(
            latency_s=latency_s,
            wait_s=wait_s,
            service_s=service_s,
            instance_index=chosen,
            instance_family=instance_family,
            busy_s_per_instance=busy,
            makespan_s=makespan,
            queue_len_at_arrival=queue_len if track else np.empty(0),
        )
        self._record_dispatch(path)
        if memoize:
            result = memo.put(
                self._model,
                trace,
                pool.families,
                pool.counts,
                self._track_queue,
                result,
            )
        return result

    # -- Python fallback ---------------------------------------------------
    def _run_heap(
        self,
        arrival_list: list[float],
        service_rows: list[list[float]],
        type_list: list[int],
    ):
        """O(n log m) heap dispatch; bit-identical to the native scan.

        ``free`` holds indices of instances with ``free_at <= t`` (min-heap
        => lowest index => type-order preference).  ``busy_heap`` holds
        ``(free_at, index)`` pairs; its top is the earliest-free instance
        with the lowest-index tie-break — exactly the native scan's argmin.
        """
        track = self._track_queue
        n_instances = len(type_list)
        rows = [service_rows[t] for t in type_list]
        free = list(range(n_instances))
        heapify(free)
        busy_heap: list[tuple[float, int]] = []
        free_at = [0.0] * n_instances
        busy = [0.0] * n_instances
        starts: list[float] = []
        services: list[float] = []
        chosen: list[int] = []
        queue_len: list[int] = []
        started = 0
        push, pop, replace = heappush, heappop, heapreplace
        starts_append = starts.append
        services_append = services.append
        chosen_append = chosen.append
        queue_append = queue_len.append
        for q, t in enumerate(arrival_list):
            while busy_heap and busy_heap[0][0] <= t:
                push(free, pop(busy_heap)[1])
            if free:
                i = pop(free)
                start = t
                s = rows[i][q]
                end = start + s
                push(busy_heap, (end, i))
            else:
                # Saturated: the root instance serves this query; replace
                # in place (one sift) instead of pop + push.  Tuples are
                # strictly ordered (indices unique), so the pop sequence —
                # the only observable — is unchanged.
                start, i = busy_heap[0]
                s = rows[i][q]
                end = start + s
                replace(busy_heap, (end, i))
            free_at[i] = end
            busy[i] += s
            starts_append(start)
            services_append(s)
            chosen_append(i)
            if track:
                while started < q and starts[started] <= t:
                    started += 1
                queue_append(q - started)
        makespan = float(max(free_at)) if arrival_list else 0.0
        return starts, services, chosen, busy, queue_len, makespan
