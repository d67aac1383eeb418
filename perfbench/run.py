#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-search --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload untraced and traced, and reports the
per-layer ledger from the spans (the spans go to ``perfbench/out/``).  The
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The run exits 1 when any output check fails (an oracle mismatch, a missed
QoS target, a re-submission answered with another result) and 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("paper-search", "wide-pool", "service")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so a spawned daemon is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under test at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.workload == "service":
        import serving

        outcome = serving.run(args.seed, args.seconds, bool(args.trace), OUT)
    else:
        import searches

        outcome = searches.run(args.workload, args.seed, args.seconds, bool(args.trace))

    metrics = outcome["metrics"]
    if set(metrics) != set(wanted):
        missing, extra = sorted(set(wanted) - set(metrics)), sorted(set(metrics) - set(wanted))
        print(f"perfbench: metric set mismatch: missing {missing}, extra {extra}", file=sys.stderr)
        return 3
    tracer = outcome.get("tracer")
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")
        tracer.dump(path)
        print(f"spans: {path} ({len(tracer.spans)})")
    for phase, sent, ok, failed in outcome["phases"]:
        print(f"phase {phase}: sent {sent} succeeded {ok} failed {failed}")
    correct = outcome["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": {
                    name: {"value": metrics[name], "unit": wanted[name]} for name in wanted
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
