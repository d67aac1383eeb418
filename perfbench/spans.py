"""In-memory span recorder that wraps the public entry points of each layer.

Tracing is opt-in and reversible: ``with Tracer() as tracer:`` patches the
functions listed in :data:`TARGETS` (class methods and the two module-level
functions the runner imports by name), records one span per call, and puts
the originals back on exit.  Nothing under ``src/`` is edited.

A span is ``(span_id, parent_id, name, start_s, end_s, trace_id, extra)``.
The parent is the innermost span open in the same logical context; the
context follows work handed to a ``ThreadPoolExecutor`` (the thread
evaluation backend, the job manager's workers), so a simulation run on a
pool thread is still a child of the ``simulate_many`` call that queued it.
``trace_id`` names the search or service job a span belongs to.

Self time is a span's duration minus the part of its interval covered by
its children (the union, so concurrent children are not counted twice).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

#: (span name, layer, module, qualified attribute).  The layer is the repo
#: module the span times; the attribute is patched on the module (dotted for
#: a class attribute).
TARGETS = (
    ("workload.trace", "workload", "repro.api.runner", "trace_for_model"),
    (
        "search_space.estimate_bounds",
        "core.search_space",
        "repro.api.runner",
        "estimate_instance_bounds",
    ),
    ("service.matrix", "simulator.service", "repro.simulator.service", "ServiceTimeCache.matrix"),
    ("service.rows", "simulator.service", "repro.simulator.service", "ServiceTimeCache.rows"),
    ("engine.simulate", "simulator.engine", "repro.simulator.engine", "InferenceServingSimulator.simulate"),
    ("result_cache.get", "simulator.result_cache", "repro.simulator.result_cache", "SimulationResultCache.get"),
    ("result_cache.put", "simulator.result_cache", "repro.simulator.result_cache", "SimulationResultCache.put"),
    ("metrics.qos_rate", "simulator.metrics", "repro.simulator.metrics", "SimulationResult.qos_satisfaction_rate"),
    ("evaluator.evaluate", "core.evaluator", "repro.core.evaluator", "ConfigurationEvaluator.evaluate"),
    ("evaluator.evaluate_many", "core.evaluator", "repro.core.evaluator", "ConfigurationEvaluator.evaluate_many"),
    ("gp.fit", "gp.regression", "repro.gp.regression", "GaussianProcessRegressor.fit"),
    ("gp.predict", "gp.regression", "repro.gp.regression", "GaussianProcessRegressor.predict"),
    ("proposals.propose", "gp.proposals", "repro.gp.proposals", "SequentialEI.propose"),
    ("proposals.propose", "gp.proposals", "repro.gp.proposals", "ConstantLiarQEI.propose"),
    ("optimizer.search", "core.optimizer", "repro.core.optimizer", "RibbonOptimizer.search"),
    ("backends.simulate_many", "core.backends", "repro.core.backends", "SerialBackend.simulate_many"),
    ("backends.simulate_many", "core.backends", "repro.core.backends", "ThreadBackend.simulate_many"),
    ("runner.materialize", "api.runner", "repro.api.runner", "ScenarioRunner.materialize"),
    ("runner.run", "api.runner", "repro.api.runner", "ScenarioRunner.run"),
    ("jobs.submit", "service.jobs", "repro.service.jobs", "JobManager.submit"),
    ("jobs.fork", "service.jobs", "repro.service.jobs", "JobManager.fork"),
    ("jobs.execute", "service.jobs", "repro.service.jobs", "JobManager._execute"),
    ("http.handler", "service.http", "repro.service.http", "ServiceHandler.do_GET"),
    ("http.handler", "service.http", "repro.service.http", "ServiceHandler.do_POST"),
)

#: Every layer, in pipeline order (the per-layer self-time ledger).
LAYERS = (
    "workload",
    "core.search_space",
    "simulator.service",
    "simulator.engine",
    "simulator.result_cache",
    "simulator.metrics",
    "core.evaluator",
    "gp.regression",
    "gp.proposals",
    "core.optimizer",
    "core.backends",
    "api.runner",
    "service.jobs",
    "service.http",
)

LAYER_OF = {name: layer for name, layer, _, _ in TARGETS}


def _extra(name, args):
    """Per-call work count recorded on the span (None when not applicable)."""
    if name == "gp.predict":
        rows = args[1]  # an array, or a kernel's PreparedInput
        return int(rows.n_rows if hasattr(rows, "n_rows") else len(rows))
    if name == "backends.simulate_many":
        return len(args[3]) if len(args) > 3 else None
    if name == "evaluator.evaluate":
        # A hit in the evaluator's own record memo (peek is side-effect free).
        return int(args[0].peek(args[1]) is not None)
    return None


# (parent span id, trace id) of the innermost open span in this context.
_CONTEXT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)


class Tracer:
    """Records spans while active; patches layer functions on enter."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, trace_id: str | None = None, *, root: bool = False):
        """Record a span around a block; ``root`` starts a fresh trace."""
        parent, inherited = (None, None) if root else _CONTEXT.get()
        tid = trace_id if trace_id is not None else inherited
        sid = next(self._ids)
        token = _CONTEXT.set((sid, tid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _CONTEXT.reset(token)
            self.spans.append((sid, parent, name, start, end, tid, None))

    def _wrap(self, name: str, fn):
        spans, ids = self.spans, self._ids
        root = name == "jobs.execute"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if root:  # one trace per service job, whoever queued it
                parent, tid = None, getattr(args[1], "id", None)
            else:
                parent, tid = _CONTEXT.get()
            extra = _extra(name, args)
            sid = next(ids)
            token = _CONTEXT.set((sid, tid))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CONTEXT.reset(token)
                spans.append((sid, parent, name, start, end, tid, extra))

        return wrapper

    # -- patching ----------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for name, _layer, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            own = leaf in vars(owner)
            original = getattr(owner, leaf)
            setattr(owner, leaf, self._wrap(name, original))
            self._restore.append((owner, leaf, original, own))
        original_submit = ThreadPoolExecutor.submit

        def submit(executor, fn, /, *args, **kwargs):
            ctx = contextvars.copy_context()
            return original_submit(executor, ctx.run, fn, *args, **kwargs)

        ThreadPoolExecutor.submit = submit
        self._restore.append((ThreadPoolExecutor, "submit", original_submit, True))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, leaf, original, own = self._restore.pop()
            if own:
                setattr(owner, leaf, original)
            else:  # inherited: drop the override, the base method shows again
                delattr(owner, leaf)

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end, tid, extra in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "trace": tid,
                            "extra": extra,
                        }
                    )
                    + "\n"
                )


def load(path) -> list[tuple]:
    """Read spans written by :meth:`Tracer.dump`."""
    spans = []
    with open(path, encoding="utf-8") as src:
        for line in src:
            s = json.loads(line)
            spans.append(
                (s["id"], s["parent"], s["name"], s["start"], s["end"], s["trace"], s["extra"])
            )
    return spans


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class SpanStats:
    """Per-name and per-layer aggregates of a list of spans."""

    def __init__(self, spans: list[tuple]):
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        by_id = {}
        for s in spans:
            by_id[s[0]] = s
            if s[1] is not None:
                children[s[1]].append((s[3], s[4]))
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)  # outermost same-name
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        for sid, parent, name, start, end, _tid, extra in spans:
            dur = end - start
            self.calls[name] += 1
            self.self_s[name] += dur - _covered(start, end, children.get(sid, []))
            if not self._nested_in_same(name, parent, by_id):
                self.total_s[name] += dur
            if extra is not None:
                self.extra[name] += int(extra)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            if name in LAYER_OF:
                self.layer_self_s[LAYER_OF[name]] += value

    @staticmethod
    def _nested_in_same(name, parent, by_id) -> bool:
        while parent is not None:
            span = by_id.get(parent)
            if span is None:
                return False
            if span[2] == name:
                return True
            parent = span[1]
        return False

    def coverage(self) -> float:
        """Share of search wall attributed to a layer below the search loop.

        Search wall is the summed duration of ``runner.run`` spans; the
        unattributed part is the self time of the runner and optimizer
        loop themselves.
        """
        wall = self.total_s.get("runner.run", 0.0)
        if wall <= 0:
            return 0.0
        loop = self.self_s.get("runner.run", 0.0) + self.self_s.get("optimizer.search", 0.0)
        return 1.0 - loop / wall
