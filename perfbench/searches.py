"""In-process search workloads: ``paper-search`` and ``wide-pool``.

Both run rounds of Ribbon searches until the time budget is spent (at least
one round).  A round is a fixed list of (scenario, search seeds) derived from
the workload seed and the round number, run sequentially; every scenario of
a round gets its own cold runner with private service-time and result caches,
so each round pays the cold cost a new scenario costs a user.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.api import EvaluationBudget, PoolSpec, Scenario, ScenarioRunner, WorkloadSpec
from repro.simulator.engine import global_dispatch_counters
from repro.simulator.result_cache import SimulationResultCache
from repro.simulator.service import ServiceTimeCache

from common import (
    Counters,
    derive_seed,
    layer_metrics,
    median,
    oracle_rate,
    own_peak_rss_mb,
    percentile,
)
from spans import Tracer

#: The five zoo models, each searched with the paper's defaults: Table 3
#: diverse pool, bounds measured (cap 16), 4 000 queries at load 1.0, a
#: 40-sample budget, the trace following the search seed.
PAPER_MODELS = ("CANDLE", "ResNet50", "VGG19", "MT-WND", "DIEN")
PAPER_SEEDS_PER_MODEL = 4

#: The Fig. 8 cardinality axis: five families at bound 8 (59 049 cells).
WIDE_SCENARIO = Scenario(
    "MT-WND",
    workload=WorkloadSpec(n_queries=1000),
    pool=PoolSpec(families=("g4dn", "c5", "r5n", "m5", "t3"), bounds=(8, 8, 8, 8, 8)),
    budget=EvaluationBudget(max_samples=40),
)
WIDE_SEEDS_PER_ROUND = 2
#: Extra cold set-ups timed per round: a wide-pool set-up (pinned bounds, a
#: 1 000-query trace) takes about a millisecond, too little to time once.
EXTRA_SETUPS = {"paper-search": 0, "wide-pool": 24}


def paper_round(seed: int, rnd: int):
    return [
        (Scenario(model), [derive_seed(seed, rnd, m, k) for k in range(PAPER_SEEDS_PER_MODEL)])
        for m, model in enumerate(PAPER_MODELS)
    ]


def wide_round(seed: int, rnd: int):
    return [(WIDE_SCENARIO, [derive_seed(seed, rnd, k) for k in range(WIDE_SEEDS_PER_ROUND)])]


ROUNDS = {"paper-search": paper_round, "wide-pool": wide_round}


def warm_up() -> None:
    """Finish process-level lazy set-up (imports, first SciPy/NumPy calls)
    on small private scenarios before anything is timed."""
    small = Scenario("MT-WND", workload=WorkloadSpec(n_queries=300), budget=EvaluationBudget(max_samples=6))
    for scenario in (small, small.with_budget(batch_size=2)):
        runner = _cold_runner(scenario)
        mat = runner.materialize(0)
        res = runner.run("ribbon", seed=0)
        oracle_rate(mat.model, mat.trace, res.history[0].pool, mat.scenario.qos_target_ms)


def _cold_runner(scenario) -> ScenarioRunner:
    return ScenarioRunner(
        scenario,
        service_cache=ServiceTimeCache(),
        simulation_cache=SimulationResultCache(),
    )


def _check(mat, result) -> bool:
    """The best pool re-simulated by the event-heap oracle must reproduce
    the recorded QoS rate exactly and meet the target."""
    best = result.best
    if best is None or not best.meets_qos:
        return False
    rate = oracle_rate(mat.model, mat.trace, best.pool, mat.scenario.qos_target_ms)
    return rate == best.qos_rate and mat.objective.meets_qos(rate)


def time_setup(plan) -> float:
    """Materialize every (scenario, seed) of a round on cold runners."""
    start = time.perf_counter()
    for scenario, seeds in plan:
        runner = _cold_runner(scenario)
        for s in seeds:
            runner.materialize(s)
    return time.perf_counter() - start


def run_round(plan, tracer: Tracer | None = None, counters: Counters | None = None) -> list[dict]:
    """Run one round; returns one row per search (set-up, search, checks)."""
    # Process-wide dispatch counts: unlike runner.dispatch_counts(), they
    # include the simulations bound estimation runs during set-up.
    before = global_dispatch_counters().snapshot()
    rows = []
    for scenario, seeds in plan:
        runner = _cold_runner(scenario)
        for s in seeds:
            tid = f"{scenario.model}/{s}"
            t0 = time.perf_counter()
            with tracer.span("bench.setup", tid, root=True) if tracer else nullcontext():
                mat = runner.materialize(s)
            t1 = time.perf_counter()
            with tracer.span("bench.search", tid, root=True) if tracer else nullcontext():
                result = runner.run("ribbon", seed=s)
            t2 = time.perf_counter()
            ok = _check(mat, result)
            rows.append(
                {
                    "setup_s": t1 - t0,
                    "search_s": t2 - t1,
                    "ok": ok,
                    "cost": result.best.cost_per_hour if ok else None,
                    "samples_to_best": result.samples_to_best() if ok else None,
                }
            )
        if counters is not None:
            stats = runner.cache_stats()
            counters.add_caches(stats["simulation"], stats["service"])
    if counters is not None:
        after = global_dispatch_counters().snapshot()
        counters.add_dispatch({path: n - before.get(path, 0) for path, n in after.items()})
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    round_plan = ROUNDS[workload]
    warm_up()
    deadline = time.perf_counter() + seconds
    searches: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    tracer = Tracer() if trace else None
    counters = Counters()
    rnd = 0
    while True:
        plan = round_plan(seed, rnd)
        setups += [time_setup(plan) for _ in range(EXTRA_SETUPS[workload])]
        rows = run_round(plan)
        setups.append(sum(r["setup_s"] for r in rows))
        searches += rows
        if tracer is not None:
            # The same round again, traced: the pair gives the overhead.
            with tracer:
                traced += run_round(plan, tracer, counters)
        rnd += 1
        if time.perf_counter() >= deadline:
            break
    good = [s for s in searches if s["ok"]]
    every = searches + traced
    failed = sum(1 for s in every if not s["ok"])
    phases = [("searches", len(every), len(every) - failed, failed)]
    if tracer is None:
        walls = [s["search_s"] for s in searches]
        requests = [s["setup_s"] + s["search_s"] for s in searches]
        metrics = {
            "setup_s": median(setups),
            "search_p50_s": median(walls),
            "searches_per_s": len(walls) / sum(walls),
            "job_p50_s": percentile(requests, 50),
            "job_p90_s": percentile(requests, 90),
            "best_cost_per_hour": sum(s["cost"] for s in good) / max(len(good), 1),
            "samples_to_best": sum(s["samples_to_best"] for s in good) / max(len(good), 1),
            "peak_rss_mb": own_peak_rss_mb(),
        }
    else:
        traced_wall = sum(s["search_s"] for s in traced)
        plain_wall = sum(s["search_s"] for s in searches)
        metrics = layer_metrics(tracer.spans, counters, overhead_share=traced_wall / plain_wall - 1.0)
    return {
        "attempted": len(every),
        "failed": failed,
        "phases": phases,
        "metrics": metrics,
        "tracer": tracer,
    }
