"""Evaluation-backend contract: every backend is bit-identical.

The PR's tentpole promise — thread, process, and serial backends replay
the exact same search sequences — plus the plumbing around it: backend
resolution, evaluator/strategy/runner routing, cross-process aggregation
of dispatch counters and cache statistics, and the CLI flags.

The process-backend tests run with 2 workers regardless of host core
count: bit-identity and aggregation must hold even when workers time-slice
one CPU.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import (
    EVAL_BACKENDS,
    EvaluationBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    default_eval_workers,
    default_thread_backend,
    resolve_backend,
)
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.optimizer import RibbonOptimizer
from repro.core.search_space import SearchSpace
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from tests.conftest import make_toy_model, make_toy_trace


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessBackend(max_workers=2)
    yield backend
    backend.close()


def toy_ctx(n=500, seed=5):
    model = make_toy_model(arrival_rate_qps=400.0)
    trace = make_toy_trace(model, n=n, seed=seed)
    space = SearchSpace(("g4dn", "t3"), (4, 6))
    objective = RibbonObjective(space, qos_rate_target=0.95)
    return model, trace, space, objective


def fresh_evaluator(model, trace, objective, **kwargs):
    kwargs.setdefault("result_cache", SimulationResultCache(maxsize=64))
    return ConfigurationEvaluator(model, trace, objective, **kwargs)


TOY_POOLS = [(2, 1), (1, 3), (4, 0), (0, 2), (3, 3), (2, 4)]


class TestResolution:
    def test_registry_names(self):
        assert EVAL_BACKENDS == ("serial", "thread", "process")
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread"), ThreadBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)

    def test_none_defers(self):
        assert resolve_backend(None) is None

    def test_workers_alone_pin_a_thread_backend(self):
        backend = resolve_backend(None, 3)
        assert isinstance(backend, ThreadBackend)

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="serial, thread, process"):
            resolve_backend("fibers")

    def test_non_string_rejected(self):
        with pytest.raises(ValueError, match="EvaluationBackend"):
            resolve_backend(42)

    def test_bad_worker_counts(self):
        with pytest.raises(ValueError):
            ProcessBackend(max_workers=0)
        with pytest.raises(ValueError):
            ThreadBackend(max_workers=-1)

    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "5")
        assert default_eval_workers() == 5
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "0")
        with pytest.raises(ValueError):
            default_eval_workers()
        monkeypatch.delenv("REPRO_EVAL_WORKERS")
        assert default_eval_workers() >= 1

    def test_context_manager_protocol(self):
        with SerialBackend() as backend:
            assert isinstance(backend, EvaluationBackend)

    def test_default_thread_backend_is_shared(self):
        assert default_thread_backend() is default_thread_backend()


class TestSimulateManyIdentity:
    """Raw backend contract: simulate_many == sequential simulate."""

    @pytest.mark.parametrize("backend_name", ["serial", "thread"])
    def test_inline_backends_match_serial_loop(self, backend_name):
        model, trace, space, _ = toy_ctx()
        pools = [space.pool(c) for c in TOY_POOLS]
        sim = InferenceServingSimulator(
            model, result_cache=SimulationResultCache(maxsize=0)
        )
        expected = [sim.simulate(trace, p) for p in pools]
        backend = resolve_backend(backend_name)
        sim2 = InferenceServingSimulator(
            model, result_cache=SimulationResultCache(maxsize=0)
        )
        results = backend.simulate_many(sim2, trace, pools)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got.latency_s, want.latency_s)
            np.testing.assert_array_equal(got.instance_index, want.instance_index)
            assert got.makespan_s == want.makespan_s

    def test_process_backend_bit_identical(self, process_backend):
        model, trace, space, _ = toy_ctx()
        pools = [space.pool(c) for c in TOY_POOLS]
        serial_sim = InferenceServingSimulator(
            model, result_cache=SimulationResultCache(maxsize=0)
        )
        expected = [serial_sim.simulate(trace, p) for p in pools]
        memo = SimulationResultCache(maxsize=64)
        sim = InferenceServingSimulator(model, result_cache=memo)
        results = process_backend.simulate_many(sim, trace, pools)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got.latency_s, want.latency_s)
            np.testing.assert_array_equal(got.wait_s, want.wait_s)
            np.testing.assert_array_equal(got.service_s, want.service_s)
            np.testing.assert_array_equal(got.instance_index, want.instance_index)
            np.testing.assert_array_equal(
                got.queue_len_at_arrival, want.queue_len_at_arrival
            )
            assert got.makespan_s == want.makespan_s
            assert list(got.instance_family) == list(want.instance_family)

    def test_process_results_populate_parent_memo(self, process_backend):
        model, trace, space, _ = toy_ctx(seed=11)
        pools = [space.pool(c) for c in TOY_POOLS[:3]]
        memo = SimulationResultCache(maxsize=64)
        sim = InferenceServingSimulator(model, result_cache=memo)
        first = process_backend.simulate_many(sim, trace, pools)
        assert memo.stats()["size"] == len(pools)
        # The warm repeat is answered from the parent memo: identical
        # canonical objects, no process round-trip.
        again = process_backend.simulate_many(sim, trace, pools)
        assert all(a is b for a, b in zip(again, first))

    def test_process_backend_aggregates_dispatch_counters(self, process_backend):
        model, trace, space, _ = toy_ctx(seed=13)
        pools = [space.pool(c) for c in TOY_POOLS]
        sim = InferenceServingSimulator(
            model, result_cache=SimulationResultCache(maxsize=0)
        )
        process_backend.simulate_many(sim, trace, pools)
        counts = dict(sim.dispatch_counts)
        # The worker deltas merge onto exactly the two loop counters.
        assert set(counts) == {"native", "python"}
        assert counts["native"] + counts["python"] == len(pools)

    def test_worker_count_override_per_call(self, process_backend):
        model, trace, space, _ = toy_ctx(n=120, seed=17)
        pools = [space.pool(c) for c in TOY_POOLS[:2]]
        sim = InferenceServingSimulator(
            model, result_cache=SimulationResultCache(maxsize=0)
        )
        results = process_backend.simulate_many(
            sim, trace, pools, max_workers=1
        )
        assert len(results) == len(pools)

    def test_close_is_idempotent_and_reusable(self):
        model, trace, space, _ = toy_ctx(n=100, seed=19)
        pools = [space.pool(c) for c in TOY_POOLS[:2]]
        backend = ProcessBackend(max_workers=2)
        sim = InferenceServingSimulator(
            model, result_cache=SimulationResultCache(maxsize=0)
        )
        backend.simulate_many(sim, trace, pools)
        backend.close()
        backend.close()
        # A closed backend lazily re-spawns workers on next use.
        results = backend.simulate_many(sim, trace, pools)
        assert len(results) == len(pools)
        backend.close()


class TestSearchIdentity:
    """Full batched searches replay identically on every backend."""

    def run_search(self, backend, seed=0):
        model, trace, space, objective = toy_ctx()
        evaluator = fresh_evaluator(model, trace, objective)
        strat = RibbonOptimizer(
            max_samples=18,
            seed=seed,
            batch_size=4,
            batch_parallel=True,
            eval_backend=backend,
        )
        res = strat.search(evaluator)
        return [tuple(r.pool.counts) for r in res.history], res

    @pytest.mark.parametrize("seed", [0, 1])
    def test_thread_process_serial_sequences_equal(
        self, seed, process_backend
    ):
        serial_seq, serial_res = self.run_search("serial", seed)
        thread_seq, _ = self.run_search("thread", seed)
        process_seq, process_res = self.run_search(process_backend, seed)
        assert serial_seq == thread_seq == process_seq
        assert serial_res.best is not None
        assert process_res.best is not None
        assert serial_res.best.pool.counts == process_res.best.pool.counts
        assert serial_res.best.cost_per_hour == process_res.best.cost_per_hour

    def test_backend_name_lands_in_metadata(self, process_backend):
        _, res = self.run_search(process_backend)
        assert res.metadata["eval_backend"] == "process"
        _, res = self.run_search(None)
        assert res.metadata["eval_backend"] == "thread"

    def test_optimizer_rejects_bad_eval_workers(self):
        with pytest.raises(ValueError):
            RibbonOptimizer(eval_workers=0)

    def test_evaluate_many_backend_kwarg(self):
        model, trace, space, objective = toy_ctx(n=200, seed=23)
        pools = [space.pool(c) for c in TOY_POOLS[:4]]
        base = fresh_evaluator(model, trace, objective)
        expected = [base.evaluate(p) for p in pools]
        for backend in ("serial", "thread"):
            ev = fresh_evaluator(model, trace, objective)
            records = ev.evaluate_many(pools, parallel=True, backend=backend)
            for got, want in zip(records, expected):
                assert got.pool.counts == want.pool.counts
                assert got.cost_per_hour == want.cost_per_hour
                assert got.p99_ms == want.p99_ms


class TestRunnerIntegration:
    def scenario(self, max_samples=8):
        from repro.api.scenario import Scenario

        return (
            Scenario.builder("MT-WND")
            .workload(n_queries=600, seed=3)
            .budget(max_samples=max_samples)
            .build()
        )

    def test_runner_resolves_backend_and_errors_cleanly(self):
        from repro.api.runner import ScenarioRunner
        from repro.api.scenario import ScenarioError

        runner = ScenarioRunner(self.scenario(), eval_backend="thread")
        assert runner.eval_backend is not None
        assert runner.eval_backend.name == "thread"
        with pytest.raises(ScenarioError, match="serial, thread, process"):
            ScenarioRunner(self.scenario(), eval_backend="bogus")
        with pytest.raises(ScenarioError, match="eval_workers"):
            ScenarioRunner(self.scenario(), eval_workers=0)

    def test_fork_propagates_backend(self):
        from repro.api.runner import ScenarioRunner

        runner = ScenarioRunner(self.scenario(), eval_backend="thread")
        fork = runner.fork(load_factor=1.2)
        assert fork.eval_backend is runner.eval_backend

    def test_run_many_default_workers_tracks_cpu(self, monkeypatch):
        from repro.api.runner import ScenarioRunner

        monkeypatch.setenv("REPRO_EVAL_WORKERS", "2")
        runner = ScenarioRunner(self.scenario(max_samples=5))
        results = runner.run_many("random", seeds=(0, 1, 2), parallel=True)
        assert set(results) == {0, 1, 2}
        sequential = ScenarioRunner(self.scenario(max_samples=5)).run_many(
            "random", seeds=(0, 1, 2)
        )
        for seed in (0, 1, 2):
            assert [r.pool.counts for r in results[seed].history] == [
                r.pool.counts for r in sequential[seed].history
            ]

    def test_runner_close_releases_backend(self):
        from repro.api.runner import ScenarioRunner

        runner = ScenarioRunner(self.scenario(), eval_backend="thread")
        runner.close()  # no-op for the thread backend, must not raise
        runner.close()


class TestCLIFlags:
    def test_search_rejects_backend_for_non_batching_strategy(self, capsys):
        from repro.cli import main

        assert main(["search", "MT-WND", "--method", "random", "--eval-backend", "thread"]) == 2
        err = capsys.readouterr().err
        assert "--eval-backend" in err and "does not accept" in err

    def test_search_rejects_eval_workers_for_non_batching_strategy(self, capsys):
        from repro.cli import main

        assert main(["search", "MT-WND", "--method", "hill-climb", "--eval-workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "--eval-workers" in err

    def test_parser_accepts_new_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "search",
                "MT-WND",
                "--eval-backend",
                "process",
                "--eval-workers",
                "2",
                "--disk-cache",
                "/tmp/x.sqlite",
            ]
        )
        assert args.eval_backend == "process"
        assert args.eval_workers == 2
        assert args.disk_cache == "/tmp/x.sqlite"
        serve = build_parser().parse_args(["serve", "--eval-backend", "thread"])
        assert serve.eval_backend == "thread"


class TestJobManagerIntegration:
    def test_backend_knobs_require_default_factory(self):
        from repro.service.jobs import JobManager

        with pytest.raises(ValueError, match="default runner factory"):
            JobManager(runner_factory=lambda s: None, eval_backend="thread")

    def test_bad_backend_fails_at_construction(self):
        from repro.service.jobs import JobManager

        with pytest.raises(ValueError, match="unknown eval backend"):
            JobManager(eval_backend="bogus")
        with pytest.raises(ValueError, match="eval_workers"):
            JobManager(eval_workers=0)

    def test_configured_manager_runs_and_reports_stats(self, tmp_path):
        from repro.service.jobs import JobManager

        manager = JobManager(
            eval_backend="thread",
            eval_workers=2,
            disk_cache=tmp_path / "jobs.sqlite",
        )
        try:
            scn = self._scenario()
            job = manager.submit(scn, "random", seed=0)
            manager.wait(job.id, timeout=120)
            assert job.state == "done"
            snap = job.snapshot(full=True)
            stats = snap["cache_stats"]["simulation"]
            assert stats["disk_entries"] > 0
        finally:
            manager.shutdown()

    @staticmethod
    def _scenario():
        from repro.api.scenario import Scenario

        return (
            Scenario.builder("MT-WND")
            .workload(n_queries=500, seed=2)
            .budget(max_samples=5)
            .build()
        )
