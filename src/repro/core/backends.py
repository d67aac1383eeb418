"""Pluggable evaluation backends: where batch simulations actually run.

``Budget.evaluate_batch`` / ``ConfigurationEvaluator.evaluate_many``
parallelize the *simulations* of a proposal batch while admitting records
sequentially, so batched searches replay bit-for-bit.  PR 5 ran those
simulations on a thread pool, which the GIL capped hard on the
pure-Python dispatch loops of the time (only ~0-10% of the measured batch
win came from parallelism).  This module makes the execution substrate
pluggable:

``SerialBackend``
    Simulate in the calling thread, in order.  The reference everything
    else must match bit-for-bit.
``ThreadBackend``
    The PR-5 behavior, verbatim: a per-call ``ThreadPoolExecutor`` over
    ``simulator.simulate``.  Cheap to engage (no worker startup), runs
    the native dispatch loop in parallel (its ``ctypes`` call releases
    the GIL), and is the default when no backend is configured.
``ProcessBackend``
    A persistent ``ProcessPoolExecutor`` whose workers rehydrate the
    workload from shared memory: the parent exports the contiguous
    read-only :class:`~repro.simulator.service.ServiceTimeCache` matrix
    plus the trace arrays through one ``multiprocessing.shared_memory``
    segment per workload, and each worker maps them zero-copy, seeds a
    worker-local service cache, and runs the *real*
    :class:`~repro.simulator.engine.InferenceServingSimulator` — same
    dispatch policy, same loops, so results are bit-identical by
    construction.  Results and per-loop (``native``/``python``) dispatch
    deltas flow back to the parent, which admits the frozen results into
    its own :class:`~repro.simulator.result_cache.SimulationResultCache`
    and merges the counters.  It beats the GIL on the Python fallback
    loop.

Backends only decide *where* ``simulate`` runs; all record admission,
sample indexing and exploration accounting stay sequential in the
evaluator, which is what keeps every backend bit-identical to the serial
golden sequences.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from repro.simulator.engine import DispatchCounters, InferenceServingSimulator
from repro.simulator.metrics import SimulationResult
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.simulator.service import ServiceTimeCache
from repro.workload.trace import QueryTrace

__all__ = [
    "EVAL_BACKENDS",
    "EvaluationBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "default_eval_workers",
    "resolve_backend",
]

#: Backend names accepted by :func:`resolve_backend` (and the CLI flags).
EVAL_BACKENDS = ("serial", "thread", "process")


def default_eval_workers() -> int:
    """Default worker count for parallel evaluation, CPU-derived.

    ``REPRO_EVAL_WORKERS`` overrides (useful for pinning CI smoke runs
    and for tests); otherwise ``os.cpu_count()``, floored at 1.
    """
    env = os.environ.get("REPRO_EVAL_WORKERS")
    if env:
        workers = int(env)
        if workers < 1:
            raise ValueError(f"REPRO_EVAL_WORKERS must be >= 1, got {env!r}")
        return workers
    return os.cpu_count() or 1


class EvaluationBackend(ABC):
    """Executes the simulations of one evaluation batch.

    Implementations must be bit-identical to :class:`SerialBackend`: the
    returned results — one per pool, in order — must equal what
    ``simulator.simulate(trace, pool)`` would produce in the calling
    thread, and any simulator-level side effects (result-memo admission,
    dispatch counters) must be equivalent to having simulated locally.
    """

    #: Registry name (what ``--eval-backend`` selects).
    name: str = "abstract"

    @abstractmethod
    def simulate_many(
        self,
        simulator: InferenceServingSimulator,
        trace: QueryTrace,
        pools: Sequence[PoolConfiguration],
        *,
        max_workers: int | None = None,
    ) -> list[SimulationResult]:
        """Simulate ``pools`` against ``trace``; results in ``pools`` order."""

    def close(self) -> None:
        """Release any pooled workers / shared resources (idempotent)."""

    def __enter__(self) -> "EvaluationBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(EvaluationBackend):
    """Simulate in the calling thread — the bit-identity reference."""

    name = "serial"

    def simulate_many(self, simulator, trace, pools, *, max_workers=None):
        return [simulator.simulate(trace, pool) for pool in pools]


class ThreadBackend(EvaluationBackend):
    """Per-call ``ThreadPoolExecutor`` over ``simulator.simulate``.

    This is exactly the PR-5 ``evaluate_many`` parallel path (same worker
    sizing, same executor lifetime), factored behind the backend
    protocol; with no explicit worker count it sizes the pool as
    ``min(len(pools), os.cpu_count() or 1)``.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        self._max_workers = max_workers

    def simulate_many(self, simulator, trace, pools, *, max_workers=None):
        pools = list(pools)
        if not pools:
            return []
        if max_workers is None:
            max_workers = self._max_workers
        workers = (
            max_workers
            if max_workers is not None
            else min(len(pools), os.cpu_count() or 1)
        )
        with ThreadPoolExecutor(max_workers=workers) as executor:
            return list(
                executor.map(lambda p: simulator.simulate(trace, p), pools)
            )


# -- process backend ----------------------------------------------------------
#
# Parent side: one _WorkloadExport per (model, trace, families) — a shared
# memory segment laid out [matrix | arrival_s | batch_sizes] plus a small
# picklable spec (model pickle, trace metadata, segment geometry).  Worker
# side: the spec token keys a per-process LRU of rehydrated workloads, so a
# workload's arrays cross the process boundary once, not once per task.

_EXPORT_TOKENS = itertools.count()


def _release_shms(shms: list) -> None:
    for shm in shms:
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):  # already gone / torn down
            pass
    shms.clear()


def _finalize_backend(state: dict) -> None:
    """Tear down a :class:`ProcessBackend`'s executor and shm segments.

    Used both by explicit :meth:`ProcessBackend.close` and as the
    ``weakref.finalize`` backstop when a backend is dropped without
    closing — an abandoned-but-running executor otherwise races the
    ``concurrent.futures`` exit hook at interpreter shutdown ("Exception
    ignored ... Bad file descriptor" noise on stderr).

    Pid-guarded: forked workers inherit the parent's backend object (and
    its finalizers), and running this teardown in a child would deadlock
    joining the parent's executor and unlink segments the parent still
    serves from.
    """
    if os.getpid() != state["pid"]:
        return
    executor = state.get("executor")
    state["executor"] = None
    if executor is not None:
        executor.shutdown(wait=True)
    _release_shms(state["shms"])


class _WorkloadExport:
    """Parent-side shared-memory export of one workload."""

    __slots__ = ("spec", "shm", "model", "trace")

    def __init__(self, simulator, trace, families: tuple[str, ...]):
        model = simulator.model
        matrix = np.ascontiguousarray(
            simulator.service_cache.matrix(model, trace, families)
        )
        arrivals = np.ascontiguousarray(trace.arrival_s, dtype=np.float64)
        batches = np.ascontiguousarray(trace.batch_sizes, dtype=np.int64)
        spec = {
            "token": f"{os.getpid()}-{next(_EXPORT_TOKENS)}",
            "model_blob": pickle.dumps(model),
            "families": tuple(families),
            "n": int(arrivals.shape[0]),
            "rate_qps": float(trace.rate_qps),
            "seed": trace.seed,
            "shm_name": None,
            "inline": None,
        }
        self.shm = None
        try:
            from multiprocessing import shared_memory

            total = matrix.nbytes + arrivals.nbytes + batches.nbytes
            shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        except (ImportError, OSError):
            # No shared memory on this platform/filesystem: ship the raw
            # bytes inside the spec instead (copied once per workload).
            spec["inline"] = {
                "matrix": matrix.tobytes(),
                "arrival_s": arrivals.tobytes(),
                "batch_sizes": batches.tobytes(),
            }
        else:
            buf = shm.buf
            offset = 0
            for arr in (matrix, arrivals, batches):
                buf[offset : offset + arr.nbytes] = arr.tobytes()
                offset += arr.nbytes
            spec["shm_name"] = shm.name
            self.shm = shm
        self.spec = spec
        # Strong refs: the export's identity key (id(model), id(trace))
        # must not be reused while this export can still serve lookups.
        self.model = model
        self.trace = trace


class _WorkerWorkload:
    """Worker-side rehydration of one exported workload."""

    __slots__ = ("shm", "model", "trace", "families", "cache", "memo", "sims")

    def __init__(self, spec: dict):
        families = spec["families"]
        n = spec["n"]
        n_fam = len(families)
        shm = None
        if spec["shm_name"] is not None:
            from multiprocessing import resource_tracker, shared_memory

            # The parent owns the segment lifecycle.  Attaching registers
            # the segment with the worker's resource tracker (3.11 has no
            # track=False), which would double-unlink it at worker exit —
            # and under fork the tracker is *shared* with the parent, so
            # an unregister-after-attach would strip the parent's own
            # registration instead.  Suppressing registration during the
            # attach is the only variant that is correct for both start
            # methods.
            register = resource_tracker.register

            def _skip_shm(name, rtype, _orig=register):
                if rtype != "shared_memory":  # pragma: no cover
                    _orig(name, rtype)

            resource_tracker.register = _skip_shm
            try:
                shm = shared_memory.SharedMemory(name=spec["shm_name"])
            finally:
                resource_tracker.register = register
            buf = shm.buf
            m_nbytes = n_fam * n * 8
            matrix = np.ndarray((n_fam, n), dtype=np.float64, buffer=buf)
            arrivals = np.ndarray(
                (n,), dtype=np.float64, buffer=buf, offset=m_nbytes
            )
            batches = np.ndarray(
                (n,), dtype=np.int64, buffer=buf, offset=m_nbytes + n * 8
            )
            for arr in (matrix, arrivals, batches):
                arr.flags.writeable = False
        else:
            inline = spec["inline"]
            matrix = np.frombuffer(
                inline["matrix"], dtype=np.float64
            ).reshape(n_fam, n)
            arrivals = np.frombuffer(inline["arrival_s"], dtype=np.float64)
            batches = np.frombuffer(inline["batch_sizes"], dtype=np.int64)
        self.shm = shm
        self.model = pickle.loads(spec["model_blob"])
        # QueryTrace's validation is zero-copy for already-typed arrays,
        # so the trace serves straight off the shared segment.
        self.trace = QueryTrace(arrivals, batches, spec["rate_qps"], spec["seed"])
        self.families = families
        self.cache = ServiceTimeCache(maxsize=4)
        self.cache.seed_matrix(self.model, self.trace, families, matrix)
        # Small worker-local memo: the parent filters its own cache hits
        # before dispatching, so repeats here are rare cross-batch echoes.
        self.memo = SimulationResultCache(maxsize=64, max_bytes=64 * 1024 * 1024)
        self.sims: dict[tuple[bool, str], InferenceServingSimulator] = {}

    def simulator(self, track_queue: bool, dispatch: str):
        key = (track_queue, dispatch)
        sim = self.sims.get(key)
        if sim is None:
            sim = self.sims[key] = InferenceServingSimulator(
                self.model,
                track_queue=track_queue,
                service_cache=self.cache,
                result_cache=self.memo,
                dispatch=dispatch,
                dispatch_counters=DispatchCounters(),
            )
        return sim

    def release(self) -> None:
        if self.shm is not None:
            try:
                self.shm.close()
            except OSError:  # pragma: no cover - platform-dependent
                pass


_WORKER_WORKLOADS: "OrderedDict[str, _WorkerWorkload]" = OrderedDict()
_WORKER_WORKLOAD_LIMIT = 4


def _worker_simulate(task):
    """Run one simulation in a worker process.

    ``task`` is ``(spec, counts, track_queue, dispatch)``; returns the
    result plus this simulation's dispatch-counter delta so the parent
    can aggregate engagement stats across processes.
    """
    spec, counts, track_queue, dispatch = task
    token = spec["token"]
    workload = _WORKER_WORKLOADS.get(token)
    if workload is None:
        workload = _WorkerWorkload(spec)
        _WORKER_WORKLOADS[token] = workload
        while len(_WORKER_WORKLOADS) > _WORKER_WORKLOAD_LIMIT:
            _, old = _WORKER_WORKLOADS.popitem(last=False)
            old.release()
    _WORKER_WORKLOADS.move_to_end(token)
    sim = workload.simulator(track_queue, dispatch)
    before = sim.dispatch_counters.snapshot()
    result = sim.simulate(
        workload.trace, PoolConfiguration(workload.families, counts)
    )
    after = sim.dispatch_counters.snapshot()
    delta = {path: after[path] - before[path] for path in after}
    return result, delta


class ProcessBackend(EvaluationBackend):
    """Persistent process pool forking over shared-memory workloads.

    Parameters
    ----------
    max_workers:
        Worker process count; defaults to :func:`default_eval_workers`.
        The pool is created lazily on first use and reused across calls
        (and across every evaluator sharing this backend instance), so a
        whole sweep pays worker startup once.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` (no
        re-import, instant worker startup) when the platform offers it.

    The parent keeps an LRU of workload exports (shared-memory segments
    holding the service-time matrix and trace arrays) and unlinks them on
    eviction and on :meth:`close`; a ``weakref.finalize`` backstops the
    unlink if the backend is dropped without closing.
    """

    name = "process"

    #: Parent-side workload exports kept alive (LRU; each pins one shm
    #: segment plus the model/trace objects backing its identity key).
    EXPORT_CACHE_SIZE = 8

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        start_method: str | None = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        self._max_workers = max_workers
        self._start_method = start_method
        self._exports: "OrderedDict[tuple, _WorkloadExport]" = OrderedDict()
        # Mutable teardown state shared with the weakref finalizer (which
        # must not reference self): the owning pid, the live executor, and
        # the shm segments to unlink.
        self._state: dict = {"pid": os.getpid(), "executor": None, "shms": []}
        self._lock = threading.Lock()
        self._finalizer = weakref.finalize(self, _finalize_backend, self._state)
        _LIVE_PROCESS_BACKENDS.add(self)

    @property
    def _executor(self) -> ProcessPoolExecutor | None:
        return self._state["executor"]

    @property
    def _shms(self) -> list:
        return self._state["shms"]

    @property
    def max_workers(self) -> int:
        return self._max_workers or default_eval_workers()

    def _ensure_executor(self, max_workers: int | None) -> ProcessPoolExecutor:
        if self._state["executor"] is None:
            import multiprocessing as mp

            method = self._start_method
            if method is None:
                method = (
                    "fork"
                    if "fork" in mp.get_all_start_methods()
                    else mp.get_start_method()
                )
            workers = max_workers or self._max_workers or default_eval_workers()
            self._state["executor"] = ProcessPoolExecutor(
                max_workers=workers, mp_context=mp.get_context(method)
            )
        return self._state["executor"]

    def _spec(self, simulator, trace, families: tuple[str, ...]) -> dict:
        key = (id(simulator.model), id(trace), families)
        export = self._exports.get(key)
        if export is None:
            export = _WorkloadExport(simulator, trace, families)
            self._exports[key] = export
            if export.shm is not None:
                self._shms.append(export.shm)
            while len(self._exports) > self.EXPORT_CACHE_SIZE:
                _, old = self._exports.popitem(last=False)
                self._drop_export(old)
        self._exports.move_to_end(key)
        return export.spec

    def _drop_export(self, export: _WorkloadExport) -> None:
        if export.shm is not None:
            try:
                self._shms.remove(export.shm)
            except ValueError:
                pass
            try:
                export.shm.close()
                export.shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    def simulate_many(self, simulator, trace, pools, *, max_workers=None):
        pools = list(pools)
        out: list[SimulationResult | None] = [None] * len(pools)
        todo: list[tuple[int, PoolConfiguration]] = []
        for i, pool in enumerate(pools):
            # Memo hits never cross the process boundary: the parent's
            # result cache answers them exactly as the in-thread
            # ``simulate`` would have.
            hit = simulator.cached_result(trace, pool)
            if hit is not None:
                out[i] = hit
            else:
                todo.append((i, pool))
        if not todo:
            return out
        with self._lock:
            executor = self._ensure_executor(max_workers)
            tasks = [
                (
                    self._spec(simulator, trace, pool.families),
                    pool.counts,
                    simulator.track_queue,
                    simulator.dispatch,
                )
                for _, pool in todo
            ]
        for (i, pool), (result, delta) in zip(
            todo, executor.map(_worker_simulate, tasks)
        ):
            simulator.merge_dispatch(delta)
            # Freeze + insert into the parent's SimulationResultCache;
            # insert-if-absent returns the canonical entry.
            out[i] = simulator.admit_result(trace, pool, result)
        return out

    def close(self) -> None:
        if os.getpid() != self._state["pid"]:
            # A forked child inheriting this backend must not tear down
            # the parent's executor or unlink its shm segments.
            return
        with self._lock:
            self._exports.clear()
            _finalize_backend(self._state)


#: Live process backends, so still-open executors can be shut down at
#: interpreter exit *before* ``concurrent.futures``' own exit hook runs —
#: that hook wakes every executor's management pipe, and an executor torn
#: down mid-shutdown surfaces as an "Exception ignored ... Bad file
#: descriptor" traceback on stderr.  ``threading._register_atexit``
#: callbacks run LIFO, and this module necessarily imports
#: ``concurrent.futures`` first, so this closer is guaranteed to run
#: before the stdlib hook.
_LIVE_PROCESS_BACKENDS: "weakref.WeakSet[ProcessBackend]" = weakref.WeakSet()


def _close_live_process_backends() -> None:  # pragma: no cover - exit path
    for backend in list(_LIVE_PROCESS_BACKENDS):
        try:
            backend.close()
        except Exception:
            pass


try:
    threading._register_atexit(_close_live_process_backends)
except AttributeError:  # pragma: no cover - pre-3.9 fallback
    import atexit

    atexit.register(_close_live_process_backends)


#: Shared stateless default: what ``evaluate_many(parallel=True)`` uses
#: when no backend was configured anywhere (the PR-5 behavior).
_DEFAULT_THREAD = ThreadBackend()


def default_thread_backend() -> ThreadBackend:
    """The process-wide default :class:`ThreadBackend` (stateless)."""
    return _DEFAULT_THREAD


def resolve_backend(
    backend: "EvaluationBackend | str | None",
    max_workers: int | None = None,
) -> EvaluationBackend | None:
    """Resolve a backend spec: an instance passes through, a name builds.

    ``None`` stays ``None`` (meaning "defer to the evaluator's default")
    — unless ``max_workers`` is given, which pins a thread backend of
    that size.  Unknown names raise ``ValueError`` listing the registry.
    """
    if backend is None:
        if max_workers is None:
            return None
        backend = "thread"
    if isinstance(backend, EvaluationBackend):
        return backend
    if not isinstance(backend, str):
        raise ValueError(
            f"eval backend must be an EvaluationBackend, a name from "
            f"{EVAL_BACKENDS} or None, got {backend!r}"
        )
    name = backend.strip().lower()
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(max_workers)
    if name == "process":
        return ProcessBackend(max_workers)
    raise ValueError(
        f"unknown eval backend {backend!r}; available: "
        + ", ".join(EVAL_BACKENDS)
    )
