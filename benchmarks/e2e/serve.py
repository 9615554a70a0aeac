"""The server child of ``sql_service``: a tuned engine behind ``repro.service``.

Started by ``run.py`` once per repetition.  It generates the same task as
its parent, builds and preloads the database, listens on a loopback port,
and then takes commands on its standard input (see ``adapter.serve``).
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import adapter                                                  # noqa: E402
import workloads                                                # noqa: E402
from tracer import Tracer                                       # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    task = workloads.generate(args.workload, args.seed, args.scale)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(adapter.SPANS)
    adapter.serve(args.dir, task, tracer)


if __name__ == "__main__":
    main()
