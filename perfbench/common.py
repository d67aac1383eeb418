"""Helpers shared by the workloads: seeds, statistics, oracle, per-layer ledger."""

from __future__ import annotations

import resource
import statistics

import numpy as np

from repro.simulator.events import EventHeapSimulator
from repro.simulator.service import ServiceTimeCache

from spans import LAYERS, SpanStats

#: Dispatch paths reported one by one (``engine.dispatch.<path>``).
DISPATCH_PATHS = ("linear", "heap", "vector", "vector_hetero", "vector_fallback")


def derive_seed(*parts: int) -> int:
    """A 31-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0] >> 1)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def oracle_rate(model, trace, pool, target_ms: float) -> float:
    """QoS rate of ``pool`` on ``trace`` under the event-heap reference."""
    sim = EventHeapSimulator(model, service_cache=ServiceTimeCache())
    return sim.simulate(trace, pool).qos_satisfaction_rate(target_ms)


def samples_to_best(history: list[dict], best: dict) -> int:
    """``SearchResult.samples_to_best`` on a serialized result."""
    for i, rec in enumerate(history, start=1):
        if rec["meets_qos"] and rec["cost_per_hour"] <= best["cost_per_hour"] + 1e-12:
            return i
    raise ValueError("best record missing from history")


class Counters:
    """Dispatch and cache counters summed over the boundaries they were read at."""

    def __init__(self) -> None:
        self.dispatch: dict[str, int] = {}
        self.simulation = {"hits": 0, "misses": 0, "bytes": 0}
        self.service = {"hits": 0, "misses": 0}

    def add_dispatch(self, counts: dict) -> None:
        for path, n in counts.items():
            self.dispatch[path] = self.dispatch.get(path, 0) + int(n)

    def add_caches(self, simulation: dict, service: dict) -> None:
        """Fold in one cache pair's ``stats()`` (``bytes``: the largest held)."""
        for key in ("hits", "misses"):
            self.simulation[key] += simulation[key]
            self.service[key] += service[key]
        self.simulation["bytes"] = max(self.simulation["bytes"], simulation["bytes"])


def layer_metrics(
    spans: list[tuple],
    counters: Counters,
    *,
    overhead_share: float,
    service_side: dict | None = None,
) -> dict[str, float]:
    """The per-layer ledger from a traced run's spans and counters.

    ``service_side`` carries the job, HTTP and generator figures of the
    service workload (zeros elsewhere).
    """
    st = SpanStats(spans)
    dispatch, simulation, service = counters.dispatch, counters.simulation, counters.service
    runs = sum(n for path, n in dispatch.items() if not path.startswith("vector_fallback"))
    sim_gets = simulation["hits"] + simulation["misses"]
    svc_gets = service["hits"] + service["misses"]
    evals = st.calls.get("evaluator.evaluate", 0)
    out = {
        "engine.simulate.calls": st.calls.get("engine.simulate", 0),
        "engine.simulate.self_s": st.self_s.get("engine.simulate", 0.0),
        **{f"engine.dispatch.{p}": dispatch.get(p, 0) for p in DISPATCH_PATHS},
        "engine.dispatch.runs": runs,
        "search_space.estimate_bounds.s": st.total_s.get("search_space.estimate_bounds", 0.0),
        "workload.trace.s": st.total_s.get("workload.trace", 0.0),
        "service.matrix.s": st.layer_self_s.get("simulator.service", 0.0),
        "service_cache.gets": svc_gets,
        "service_cache.hit_ratio": service["hits"] / svc_gets if svc_gets else 0.0,
        "metrics.qos_rate.s": st.total_s.get("metrics.qos_rate", 0.0),
        "result_cache.gets": sim_gets,
        "result_cache.hit_ratio": simulation["hits"] / sim_gets if sim_gets else 0.0,
        "result_cache.get.s": st.total_s.get("result_cache.get", 0.0),
        "result_cache.put.s": st.total_s.get("result_cache.put", 0.0),
        "result_cache.bytes": simulation["bytes"],
        "evaluator.evaluate.calls": evals,
        "evaluator.evaluate.self_s": st.self_s.get("evaluator.evaluate", 0.0)
        + st.self_s.get("evaluator.evaluate_many", 0.0),
        "evaluator.hit_ratio": st.extra.get("evaluator.evaluate", 0) / evals if evals else 0.0,
        "gp.fit.calls": st.calls.get("gp.fit", 0),
        "gp.fit.s": st.total_s.get("gp.fit", 0.0),
        "gp.predict.calls": st.calls.get("gp.predict", 0),
        "gp.predict.s": st.total_s.get("gp.predict", 0.0),
        "gp.predict.rows": st.extra.get("gp.predict", 0),
        "proposals.propose.calls": st.calls.get("proposals.propose", 0),
        "proposals.propose.self_s": st.self_s.get("proposals.propose", 0.0),
        "optimizer.search.self_s": st.self_s.get("optimizer.search", 0.0),
        "backends.simulate_many.calls": st.calls.get("backends.simulate_many", 0),
        "backends.simulate_many.s": st.total_s.get("backends.simulate_many", 0.0),
        "backends.simulate_many.pools": st.extra.get("backends.simulate_many", 0),
        "runner.materialize.s": st.total_s.get("runner.materialize", 0.0),
        "runner.run.self_s": st.self_s.get("runner.run", 0.0),
        **{f"layer.{layer}.self_s": st.layer_self_s.get(layer, 0.0) for layer in LAYERS},
        "search.count": st.calls.get("runner.run", 0),
        "search.wall_s": st.total_s.get("runner.run", 0.0),
        "tracing.spans": len(spans),
        "tracing.overhead_share": overhead_share,
        "tracing.coverage": st.coverage(),
    }
    side = {
        "jobs.submissions": 0,
        "jobs.queue_wait_p50_s": 0.0,
        "jobs.queue_wait_p90_s": 0.0,
        "jobs.run_p50_s": 0.0,
        "jobs.fork_run_p50_s": 0.0,
        "jobs.open_p50_s": 0.0,
        "jobs.open_p90_s": 0.0,
        "jobs.reused_share": 0.0,
        "http.requests": st.calls.get("http.handler", 0),
        "http.handler.s": st.total_s.get("http.handler", 0.0),
        "http.status.reads": 0,
        "http.status.p50_ms": 0.0,
        "http.status.p99_ms": 0.0,
        "generator.lag_p50_ms": 0.0,
        "generator.lag_max_ms": 0.0,
    }
    side.update(service_side or {})
    out.update(side)
    return out

