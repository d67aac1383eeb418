"""Process-parallel evaluation backend + disk-tier warm restart (repo infra).

Times the multi-seed batched Ribbon sweep under the two parallel
evaluation backends the PR introduced:

* **thread** — the PR-5 behavior: each batch simulated by a shared
  thread pool (NumPy kernels release the GIL for part of the work);
* **process** — worker processes forked over shared-memory views of the
  service-time matrix and arrival times; only dispatch deltas and frozen
  result arrays cross the pipe, and record admission stays sequential in
  the parent, so the search sequence is bit-identical.

Both sides share one warmed service-time cache and get an identical
fresh simulation memo, so the ratio isolates the evaluation backend.
The bench also exercises the **disk tier**: a cold sweep writes through
to a SQLite store, then a rebuilt runner (fresh memory tier, same path)
replays the sweep out of the disk cache and must report a nonzero disk
hit rate with bit-identical results — the warm-restart contract.

``BENCH_parallel_eval.json`` records the trajectory in the shared
artifact format (see :mod:`_artifact`).  The >= 2x process-over-thread
target is asserted on the recording host *and* only where at least
``MIN_ENFORCE_CPUS`` cores exist — a single-core container cannot show
multiprocess speedup, only bit-identity (``BENCH_ENFORCE_SPEEDUP=1/0``
overrides the host gate, as in the sibling benches).

CI runs this bench with ``BENCH_PARALLEL_SMOKE=1``: shrunken trace and
seed set, two workers, bit-identity + warm-disk-hit asserts only.
"""

from __future__ import annotations

import os
import platform
import time

import pytest
from _artifact import BenchArtifact

from repro.api import (
    EvaluationBudget,
    PoolSpec,
    Scenario,
    ScenarioRunner,
    WorkloadSpec,
)
from repro.core.backends import resolve_backend
from repro.simulator.result_cache import SimulationResultCache
from repro.simulator.service import ServiceTimeCache

SPEEDUP_TARGET = 2.0
MIN_ENFORCE_CPUS = 4
MEASURE_PASSES = 2
MAX_MEASURE_PASSES = 6

SMOKE = os.environ.get("BENCH_PARALLEL_SMOKE") == "1"

DEFAULT_WORKLOAD = {
    "model": "MT-WND",
    "families": ["g4dn", "c5", "r5n"],
    "bounds": [15, 15, 15],
    "n_queries": 2000,
    "workload_seed": 7,
    "load_factor": 1.3,
    "max_samples": 32,
    "batch_size": 8,
    "sweep_seeds": [0, 1, 2],
    "workers": 4,
}


@pytest.fixture(scope="module")
def parallel_ctx():
    artifact = BenchArtifact("BENCH_parallel_eval.json")
    artifact.ensure_section("benchmark", "parallel_eval")
    artifact.ensure_section("workload", DEFAULT_WORKLOAD)
    spec = dict(artifact.workload)
    if SMOKE:
        spec["n_queries"] = 600
        spec["sweep_seeds"] = spec["sweep_seeds"][:2]
        spec["max_samples"] = 16
        spec["workers"] = 2
    scenario = Scenario(
        model=spec["model"],
        workload=WorkloadSpec(
            n_queries=spec["n_queries"],
            seed=spec["workload_seed"],
            load_factor=spec["load_factor"],
        ),
        pool=PoolSpec(
            families=tuple(spec["families"]), bounds=tuple(spec["bounds"])
        ),
        budget=EvaluationBudget(max_samples=spec["max_samples"]),
    )
    return spec, scenario, tuple(spec["sweep_seeds"])


def _sweep(scenario, service, seeds, *, backend=None, disk=None, **kwargs):
    # Fresh per-sweep memo (seeds share it, sides don't), shared warmed
    # service cache: the ratio isolates the evaluation backend.
    runner = ScenarioRunner(
        scenario,
        service_cache=service,
        eval_backend=backend,
        **(
            {"disk_cache": disk}
            if disk is not None
            else {"simulation_cache": SimulationResultCache(maxsize=4096)}
        ),
    )
    t0 = time.perf_counter()
    results = runner.run_many("ribbon", seeds=seeds, patience=None, **kwargs)
    return time.perf_counter() - t0, results, runner


def _sequences(results):
    return {
        seed: {
            "best": list(res.best.pool.counts) if res.best else None,
            "sequence": [list(r.pool.counts) for r in res.history],
        }
        for seed, res in results.items()
    }


def test_perf_parallel_eval(benchmark, parallel_ctx, tmp_path):
    spec, scenario, seeds = parallel_ctx
    batch = {"batch_size": spec["batch_size"]}
    workers = spec["workers"]
    service = ServiceTimeCache()

    # Warm-up (materialization + service matrix), then the thread-backend
    # reference sweep (the PR-5 behavior this bench baselines against).
    _sweep(scenario, service, seeds, **batch)
    thread_backend = resolve_backend("thread", workers)
    thread_times = []
    for _ in range(1 if SMOKE else MEASURE_PASSES):
        dt, thread_results, _ = _sweep(
            scenario, service, seeds, backend=thread_backend, **batch
        )
        thread_times.append(dt)

    # Bit-identity contract, leg one: the thread backend replays the
    # serial evaluation exactly.
    _, serial_results, _ = _sweep(
        scenario, service, seeds, backend="serial", **batch
    )
    assert _sequences(thread_results) == _sequences(serial_results)

    # The process backend: forked workers over shared-memory workload
    # views, sequential record admission in the parent.
    process_times = []
    with resolve_backend("process", workers) as process_backend:

        def measured():
            dt, results, _ = _sweep(
                scenario, service, seeds, backend=process_backend, **batch
            )
            process_times.append(dt)
            return results

        process_results = benchmark.pedantic(
            measured, rounds=1 if SMOKE else MEASURE_PASSES, iterations=1
        )
        while (
            not SMOKE
            and (os.cpu_count() or 1) >= MIN_ENFORCE_CPUS
            and min(process_times) * SPEEDUP_TARGET > min(thread_times) * 0.95
            and len(process_times) < MAX_MEASURE_PASSES
        ):
            dt, process_results, _ = _sweep(
                scenario, service, seeds, backend=process_backend, **batch
            )
            process_times.append(dt)

    # Bit-identity contract, leg two — the headline property: worker
    # processes reproduce the thread sweep bit-for-bit, and the backend
    # actually engaged on every seed.
    assert _sequences(process_results) == _sequences(thread_results)
    for seed, res in process_results.items():
        assert res.metadata["eval_backend"] == "process", seed
        assert res.best is not None, seed

    # Disk tier: a cold sweep writes through; a rebuilt runner (fresh
    # memory tier, same SQLite path) replays it out of the disk cache.
    disk_path = tmp_path / "parallel_eval.sqlite"
    cold_wall, cold_results, cold_runner = _sweep(
        scenario, service, seeds, disk=disk_path, **batch
    )
    cold_entries = cold_runner.cache_stats()["simulation"]["disk_entries"]
    assert cold_entries > 0
    cold_runner.close()
    warm_wall, warm_results, warm_runner = _sweep(
        scenario, service, seeds, disk=disk_path, **batch
    )
    warm_stats = warm_runner.cache_stats()["simulation"]
    warm_runner.close()
    assert warm_stats["disk_hits"] > 0
    hit_rate = warm_stats["disk_hits"] / max(
        1, warm_stats["disk_hits"] + warm_stats["disk_misses"]
    )
    assert _sequences(warm_results) == _sequences(cold_results)
    assert _sequences(cold_results) == _sequences(thread_results)

    if SMOKE:
        return  # shrunken workload: goldens/timings are not comparable

    artifact = BenchArtifact("BENCH_parallel_eval.json")
    artifact.ensure_section(
        "golden", {str(s): v for s, v in _sequences(serial_results).items()}
    )
    artifact.ensure_section(
        "baseline_thread",
        {
            "host": platform.node(),
            "recorded_at": time.strftime("%Y-%m-%d"),
            "wall_s": min(thread_times),
            "workers": workers,
        },
    )
    for seed in seeds:
        golden = artifact.golden[str(seed)]
        got = _sequences(serial_results)[seed]
        assert got["best"] == golden["best"], f"seed {seed}"
        assert got["sequence"] == golden["sequence"], f"seed {seed} sequence"

    thread_wall, process_wall = min(thread_times), min(process_times)
    speedup = thread_wall / process_wall
    artifact.record(
        thread_wall_s=thread_wall,
        process_wall_s=process_wall,
        speedup_process=speedup,
        workers=workers,
        batch_size=spec["batch_size"],
        disk={
            "cold_wall_s": cold_wall,
            "warm_wall_s": warm_wall,
            "entries": cold_entries,
            "warm_hits": warm_stats["disk_hits"],
            "warm_hit_rate": hit_rate,
        },
    )
    if (os.cpu_count() or 1) >= MIN_ENFORCE_CPUS:
        artifact.enforce_speedup(
            speedup,
            SPEEDUP_TARGET,
            baseline_host=artifact.baseline("baseline_thread")["host"],
            label=(
                f"process backend ({workers} workers) {len(seeds)}-seed "
                "sweep vs the thread backend"
            ),
        )


def test_warm_disk_restart_without_parallelism(parallel_ctx, tmp_path):
    """The disk tier alone (no backend) honors the warm-restart contract.

    A single-seed run with the default evaluation path writes through to
    disk; a rebuilt runner replays it with a nonzero hit rate and
    bit-identical history — the property CI smoke relies on.
    """
    spec, scenario, seeds = parallel_ctx
    service = ServiceTimeCache()
    path = tmp_path / "restart.sqlite"
    _, cold, cold_runner = _sweep(scenario, service, seeds[:1], disk=path)
    cold_runner.close()
    _, warm, warm_runner = _sweep(scenario, service, seeds[:1], disk=path)
    stats = warm_runner.cache_stats()["simulation"]
    warm_runner.close()
    assert stats["disk_hits"] > 0
    assert _sequences(warm) == _sequences(cold)
