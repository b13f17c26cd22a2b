"""Command line: ``python -m bench`` (full set) and ``python -m bench run``."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from bench import SRC
from bench.metrics import RUN_SECONDS


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    """Parse the command line of either mode."""
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Run every workload in rounds of fresh interpreters, "
        "check outputs, and print every metric with its unit.",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced runs per workload (default 5)")
    parser.add_argument("--workload", help="only this workload")
    parser.add_argument("--out", help="write the full report here as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="one short repeat for development and CI smoke; "
                        "the report is stamped not comparable")
    sub = parser.add_subparsers(dest="mode")
    run = sub.add_parser("run", help="one run of one workload (the contract)")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--quick", action="store_true")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch to one run or to the full set."""
    args = parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    if args.mode == "run":
        from bench import run

        return run.main(args.workload, args.seed, args.seconds, args.trace, args.quick)
    from bench import suite

    return suite.main(args.seed, args.repeats, args.workload, args.out, args.quick)


if __name__ == "__main__":
    sys.exit(main())
