"""Child interpreter that measures one set-up: start -> inputs ready.

``python -m bench.setup_probe WORKLOAD SEED`` imports the program, builds
the inputs of the workload's first call, computes the first
``code_fingerprint()`` (what a fresh process pays before its first cache
key), and prints when it was ready and how fast the host was just then.
The parent subtracts the instant it spawned the child, so interpreter
start-up is part of the figure.
"""

from __future__ import annotations

import json
import sys

from bench import host


def main(argv: list[str]) -> int:
    """Run one set-up and print ``{"ready_at": ..., "calib": ...}``."""
    name, seed = argv[0], int(argv[1])
    from bench.workloads import all_workloads
    from repro.experiments import cache

    all_workloads()[name].inputs(seed, 0)
    cache.code_fingerprint()
    ready_at = host.now()
    host.calibrate()  # the first one after the imports reads too slow
    print(json.dumps({"ready_at": ready_at, "calib": host.calibrate()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
