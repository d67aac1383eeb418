"""The ``service`` workload: the daemon in its own process, driven over HTTP.

A single-threaded generator holds one connection at a time and runs three
phases against a fresh daemon (``repro-ribbon serve --port 0``, 2 workers):

* **burst** — :data:`BURST_JOBS` new searches submitted at once, a quarter
  of them with ``budget.batch_size=4``;
* **open loop** — Poisson arrivals at the fixed :data:`OPEN_RATE` of new
  searches and exact re-submissions of burst jobs, with ``GET /jobs/<id>``
  status reads every :data:`STATUS_INTERVAL_S` between submissions;
* **load change** — :data:`FORK_JOBS` forks of burst jobs to
  ``load_factor=1.5``, submitted at once.

Every search runs the pinned-trace MT-WND ``(g4dn, t3)`` ``(6, 6)`` scenario
of the service-throughput spec, so jobs share one trace and the daemon's
result memo.  Open-loop jobs are timed from their due time, not from
when the generator got round to sending them.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np

from repro.api import Scenario, ScenarioRunner
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.simulator.service import ServiceTimeCache

import spans as spans_mod
from common import (
    Counters,
    derive_seed,
    layer_metrics,
    median,
    oracle_rate,
    percentile,
    proc_peak_rss_mb,
    samples_to_best,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The burst: new searches, a quarter of them batched.
BURST_JOBS = 200
BURST_KINDS = ("new", "batched")
BURST_MIX = (0.75, 0.25)
#: Open-loop arrival rate (jobs/s), fixed once so every run offers the same
#: load: about a third of the ~25 searches/s the burst ran on a 2-core host.
#: At half that throughput the queueing amplified the host's speed drift,
#: and open-loop latency varied by over 30 % between runs.
OPEN_RATE = 8.0
#: Share of the run's seconds spent in the open loop (sets its job count).
OPEN_SHARE = 0.5
#: The open loop: new searches and exact re-submissions of burst jobs.
OPEN_KINDS = ("new", "resubmit")
OPEN_MIX = (0.75, 0.25)
#: The load change: forks of burst jobs to a higher load, submitted at once
#: after the open loop.  They simulate a new trace cold, several times the
#: work of a new search, so they are kept out of the open loop's latency.
FORK_JOBS = 20
FORK_LOAD = 1.5
STATUS_INTERVAL_S = 0.02
SETUP_SPAWNS = 3
TERMINAL = ("done", "failed", "cancelled")
#: The pinned workload seed of the service-throughput spec: every job of a
#: run searches the same trace, so the result memo is shared across jobs.
TRACE_SEED = 1


def base_scenario(batch_size: int = 1) -> dict:
    return {
        "model": "MT-WND",
        "workload": {"n_queries": 4000, "seed": TRACE_SEED},
        "pool": {"families": ["g4dn", "t3"], "bounds": [6, 6]},
        "budget": {"max_samples": 20, "batch_size": batch_size},
    }


WARMUP_SCENARIO = {
    "model": "MT-WND",
    "workload": {"n_queries": 500, "seed": 0},
    "pool": {"families": ["g4dn", "t3"], "bounds": [4, 4]},
    "budget": {"max_samples": 6, "batch_size": 2},
}


class Daemon:
    """One daemon process: spawn, health-wait, HTTP calls, stop."""

    def __init__(self, spans_path: str | None = None):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]),
            PYTHONUNBUFFERED="1",
        )
        cmd = [sys.executable, os.path.join(HERE, "daemon.py")]
        if spans_path is not None:
            cmd += ["--spans", spans_path]
        cmd += ["--", "--port", "0"]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"daemon did not report its address: {line!r}")
            self.host, port = line.strip().rsplit("http://", 1)[1].rsplit(":", 1)
            self.port = int(port)
            deadline = time.monotonic() + 60
            while True:
                try:
                    if self.call("GET", "/health")[0] == 200:
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon never became healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def call(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data is not None else {}
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def wait(self, job_id: str, poll_s: float = 0.02, timeout_s: float = 120) -> dict:
        deadline = time.monotonic() + timeout_s
        while True:
            status, snap = self.call("GET", f"/jobs/{job_id}")
            if status == 200 and snap["state"] in TERMINAL:
                return snap
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} not finished after {timeout_s}s")
            time.sleep(poll_s)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _mix(rng, n: int, kinds, shares) -> list[str]:
    """``n`` kinds in a fixed composition, in an order drawn from ``rng``."""
    counts = [int(round(n * share)) for share in shares[1:]]
    out = [kinds[0]] * (n - sum(counts))
    for kind, count in zip(kinds[1:], counts):
        out += [kind] * count
    return [str(k) for k in rng.permutation(out)]


class _Plan:
    """Every input of one run, derived from the workload seed alone.

    Each phase has a fixed composition of kinds; the seed picks their order,
    the search seeds, the burst jobs that are re-submitted or forked, and
    the Poisson arrival times.
    """

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng(derive_seed(seed, 7))
        n_open = max(len(OPEN_KINDS), int(round(OPEN_RATE * seconds * OPEN_SHARE)))
        seeds = rng.choice(10**6, size=BURST_JOBS + n_open + FORK_JOBS, replace=False)
        search_seeds = iter(int(x) for x in seeds)
        self.burst = [(k, next(search_seeds)) for k in _mix(rng, BURST_JOBS, BURST_KINDS, BURST_MIX)]
        offsets = np.cumsum(rng.exponential(1.0 / OPEN_RATE, size=n_open))
        # (due offset, kind, search seed, index of the burst job re-submitted)
        self.open = [
            (float(offsets[i]), kind, next(search_seeds), int(rng.integers(BURST_JOBS)))
            for i, kind in enumerate(_mix(rng, n_open, OPEN_KINDS, OPEN_MIX))
        ]
        # (search seed, index of the burst job forked)
        self.forks = [(next(search_seeds), int(rng.integers(BURST_JOBS))) for _ in range(FORK_JOBS)]


class _Pass:
    """Outcome of one full pass of the workload against one daemon."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.phases: list[tuple] = []
        self.jobs: dict[str, dict] = {}  # search job id -> final snapshot
        self.results: dict[str, dict] = {}
        self.burst_ids: list[str] = []
        self.open_due: dict[str, float] = {}  # open-loop search job id -> due time
        self.fork_ids: list[str] = []
        self.jobs_per_s = 0.0
        self.burst_start = 0.0
        self.status_ms: list[float] = []
        self.lag_ms: list[float] = []
        self.submissions = 0
        self.reused = 0
        self.peak_rss_mb = 0.0
        self.setup_s = 0.0


def _submit(daemon: Daemon, body: dict):
    status, snap = daemon.call("POST", "/jobs", body)
    return snap.get("id") if status == 202 else None


def _burst(daemon: Daemon, plan: _Plan, out: _Pass) -> None:
    out.burst_start = start = time.time()
    for kind, search_seed in plan.burst:
        body = {"scenario": base_scenario(4 if kind == "batched" else 1), "seed": search_seed}
        out.burst_ids.append(_submit(daemon, body))  # None when refused
        out.submissions += 1
    for job_id in filter(None, out.burst_ids):
        out.jobs[job_id] = daemon.wait(job_id)
    done = [s for s in out.jobs.values() if s["state"] == "done"]
    failed = len(plan.burst) - len(done)
    out.jobs_per_s = len(done) / (max(s["finished_at"] for s in done) - start)
    out.phases.append(("burst", len(plan.burst), len(plan.burst) - failed, failed))
    out.attempted += len(plan.burst)
    out.failed += failed


def _forks(daemon: Daemon, plan: _Plan, out: _Pass) -> None:
    ids = []
    for search_seed, target in plan.forks:
        parent = out.burst_ids[target]
        job_id = None
        if parent is not None:
            status, snap = daemon.call(
                "POST",
                f"/jobs/{parent}/fork",
                {"workload": {"load_factor": FORK_LOAD}, "seed": search_seed},
            )
            job_id = snap.get("id") if status == 202 else None
        out.submissions += 1
        ids.append(job_id)
    failed = ids.count(None)
    for job_id in filter(None, ids):
        out.jobs[job_id] = snap = daemon.wait(job_id)
        out.fork_ids.append(job_id)
        failed += snap["state"] != "done"
    out.phases.append(("forks", len(ids), len(ids) - failed, failed))
    out.attempted += len(ids)
    out.failed += failed


def _open_loop(daemon: Daemon, plan: _Plan, out: _Pass) -> None:
    ops = []  # (kind, job id or None, re-submitted burst job id or None)
    status_failed = 0
    last_id = None
    t0 = time.time() + 0.05
    next_status = t0
    i = 0
    while i < len(plan.open):
        offset, kind, search_seed, target = plan.open[i]
        due = t0 + offset
        now = time.time()
        if now >= due:
            out.lag_ms.append(1e3 * (now - due))
            parent = out.burst_ids[target] if kind == "resubmit" else None
            if parent is not None:
                original = out.jobs[parent]
                job_id = _submit(daemon, {"scenario": original["scenario"], "seed": original["seed"]})
            elif kind == "resubmit":
                job_id = None  # the burst job to re-submit was refused
            else:
                job_id = _submit(daemon, {"scenario": base_scenario(), "seed": search_seed})
            out.submissions += 1
            ops.append((kind, job_id, parent))
            if job_id is not None and kind != "resubmit":
                out.open_due[job_id] = due
                last_id = job_id
            i += 1
        elif last_id is not None and now >= next_status:
            t = time.perf_counter()
            status, _ = daemon.call("GET", f"/jobs/{last_id}")
            out.status_ms.append(1e3 * (time.perf_counter() - t))
            status_failed += status != 200
            next_status = now + STATUS_INTERVAL_S
        else:
            time.sleep(max(0.0, min(due, next_status) - now if last_id else due - now))

    failed = 0
    for kind, job_id, parent in ops:
        if job_id is None:
            failed += 1
        elif kind == "resubmit":
            # Reuse must answer with the original job and its exact result.
            status, body = daemon.call("GET", f"/jobs/{job_id}/result")
            reused = job_id == parent and status == 200 and body["result"] == out.results.get(parent)
            out.reused += job_id == parent
            failed += not reused
        else:
            snap = daemon.wait(job_id)
            out.jobs[job_id] = snap
            failed += snap["state"] != "done"
    out.phases.append(("open-loop", len(ops), len(ops) - failed, failed))
    out.phases.append(("status-reads", len(out.status_ms), len(out.status_ms) - status_failed, status_failed))
    out.attempted += len(ops) + len(out.status_ms)
    out.failed += failed + status_failed


class _Oracle:
    """Event-heap re-simulation of reported best pools, memoized per input."""

    def __init__(self) -> None:
        self._mats: dict = {}
        self._rates: dict = {}

    def check(self, snap: dict, best: dict | None) -> bool:
        if best is None or not best["meets_qos"]:
            return False
        scenario = Scenario.from_dict(snap["scenario"])
        key = (scenario.identity(), scenario.trace_seed(snap["seed"]))
        mat = self._mats.get(key)
        if mat is None:
            runner = ScenarioRunner(
                scenario,
                service_cache=ServiceTimeCache(),
                simulation_cache=SimulationResultCache(maxsize=0),
            )
            mat = self._mats[key] = runner.materialize(snap["seed"])
        rkey = key + (tuple(best["counts"]),)
        if rkey not in self._rates:
            pool = PoolConfiguration(tuple(best["families"]), tuple(best["counts"]))
            self._rates[rkey] = oracle_rate(mat.model, mat.trace, pool, scenario.qos_target_ms)
        rate = self._rates[rkey]
        return rate == best["qos_rate"] and mat.objective.meets_qos(rate)


def run_pass(plan: _Plan, spans_path: str | None, oracle: _Oracle) -> _Pass:
    out = _Pass()
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        spare = Daemon()
        setups.append(spare.setup_s)
        spare.stop()
    daemon = Daemon(spans_path)
    setups.append(daemon.setup_s)
    out.setup_s = median(setups)
    try:
        warm = _submit(daemon, {"scenario": WARMUP_SCENARIO, "seed": 0})
        if warm is None or daemon.wait(warm)["state"] != "done":
            raise RuntimeError("warm-up job failed")
        _burst(daemon, plan, out)
        for job_id, snap in out.jobs.items():
            if snap["state"] == "done":
                out.results[job_id] = daemon.call("GET", f"/jobs/{job_id}/result")[1]["result"]
        _open_loop(daemon, plan, out)
        _forks(daemon, plan, out)
        for job_id, snap in out.jobs.items():
            if snap["state"] == "done" and job_id not in out.results:
                out.results[job_id] = daemon.call("GET", f"/jobs/{job_id}/result")[1]["result"]
        out.peak_rss_mb = proc_peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    # Output check: every finished search's best pool against the oracle.
    bad = 0
    for job_id, result in out.results.items():
        if not oracle.check(out.jobs[job_id], result["best"]):
            bad += 1
    out.phases.append(("oracle", len(out.results), len(out.results) - bad, bad))
    out.failed += bad
    return out


def _latencies(p: _Pass, due: dict) -> list[float]:
    """Latencies from due time to done; a job that did not finish misses
    every latency limit."""
    return [
        p.jobs[j]["finished_at"] - t if p.jobs.get(j, {}).get("state") == "done" else math.inf
        for j, t in due.items()
    ]


def _burst_due(p: _Pass) -> dict:
    """Every burst job is due when the burst starts (refused ones too)."""
    return {j if j is not None else f"refused-{i}": p.burst_start for i, j in enumerate(p.burst_ids)}


def _run_s(p: _Pass, ids=None) -> list[float]:
    """Start-to-done times of finished jobs (of ``ids`` only, if given)."""
    return [
        s["finished_at"] - s["started_at"]
        for j, s in p.jobs.items()
        if s["state"] == "done" and (ids is None or j in ids)
    ]


def _service_side(p: _Pass) -> dict:
    executed = [s for s in p.jobs.values() if s["started_at"] is not None]
    waits = [s["started_at"] - s["submitted_at"] for s in executed]
    return {
        "jobs.submissions": p.submissions,
        "jobs.queue_wait_p50_s": percentile(waits, 50),
        "jobs.queue_wait_p90_s": percentile(waits, 90),
        "jobs.run_p50_s": median(_run_s(p)),
        "jobs.fork_run_p50_s": percentile(_run_s(p, p.fork_ids), 50),
        "jobs.open_p50_s": percentile(_latencies(p, p.open_due), 50),
        "jobs.open_p90_s": percentile(_latencies(p, p.open_due), 90),
        "jobs.reused_share": p.reused / p.submissions,
        "http.status.reads": len(p.status_ms),
        "http.status.p50_ms": percentile(p.status_ms, 50),
        "http.status.p99_ms": percentile(p.status_ms, 99),
        "generator.lag_p50_ms": percentile(p.lag_ms, 50),
        "generator.lag_max_ms": max(p.lag_ms),
    }


def run(seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    plan = _Plan(seed, seconds)
    oracle = _Oracle()
    plain = run_pass(plan, None, oracle)
    passes = [plain]
    if not trace:
        n_done = len(plain.results)
        # The timing metrics come from the burst, the phase whose load does
        # not depend on the host's speed: under the open loop's fixed rate,
        # queueing amplifies the host's speed drift (see README.md).
        latencies = _latencies(plain, _burst_due(plain))
        metrics = {
            "setup_s": plain.setup_s,
            "search_p50_s": median(_run_s(plain, plain.burst_ids)),
            "searches_per_s": plain.jobs_per_s,
            "job_p50_s": percentile(latencies, 50),
            "job_p90_s": percentile(latencies, 90),
            "best_cost_per_hour": sum(r["best"]["cost_per_hour"] for r in plain.results.values())
            / n_done,
            "samples_to_best": sum(
                samples_to_best(r["history"], r["best"]) for r in plain.results.values()
            )
            / n_done,
            "peak_rss_mb": plain.peak_rss_mb,
        }
    else:
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"service-seed{seed}-spans.jsonl")
        traced = run_pass(plan, spans_path, oracle)
        passes.append(traced)
        with open(spans_path + ".counters.json", encoding="utf-8") as src:
            daemon_counters = json.load(src)
        counters = Counters()
        counters.add_dispatch(daemon_counters["dispatch"])
        counters.add_caches(daemon_counters["simulation"], daemon_counters["service"])
        metrics = layer_metrics(
            spans_mod.load(spans_path),
            counters,
            overhead_share=median(_run_s(traced, traced.burst_ids))
            / median(_run_s(plain, plain.burst_ids))
            - 1.0,
            service_side=_service_side(plain),
        )
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "phases": [ph for p in passes for ph in p.phases],
        "metrics": metrics,
    }
