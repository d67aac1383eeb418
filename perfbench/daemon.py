"""Run the optimization service daemon, optionally traced.

    python3 perfbench/daemon.py [--spans PATH] -- <repro-ribbon serve args>

Without ``--spans`` this is exactly ``repro-ribbon serve``.  With it, the
layer functions are wrapped for the daemon's lifetime; on shutdown (SIGINT)
the spans go to ``PATH`` and the process-wide dispatch and cache counters to
``PATH.counters.json``.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.cli import main as cli_main

    if args.spans is None:
        return cli_main(["serve", *serve_args])

    from repro.simulator.engine import global_dispatch_counters
    from repro.simulator.result_cache import shared_simulation_cache
    from repro.simulator.service import shared_service_cache

    from spans import Tracer

    with Tracer() as tracer:
        code = cli_main(["serve", *serve_args])
    tracer.dump(args.spans)
    with open(args.spans + ".counters.json", "w", encoding="utf-8") as out:
        json.dump(
            {
                "dispatch": global_dispatch_counters().snapshot(),
                "simulation": shared_simulation_cache().stats(),
                "service": shared_service_cache().stats(),
            },
            out,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
