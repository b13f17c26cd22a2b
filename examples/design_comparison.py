#!/usr/bin/env python3
"""Compare the paper's four prototype designs on one scenario.

Runs two acceptance thresholds for each of {drop, mark} x {in-band,
out-of-band} -- epsilon 0 and the band's Figure-9 value -- plus MBAC at
targets 0.9 and 1.1, and prints the loss-load points, i.e. a miniature
Figure 2 (at full scale, ``--scale 0.5`` and above, the paper's full
sweeps).
The ordering to look for: out-of-band marking reaches the lowest loss
floor, in-band dropping the highest; everyone's frontier is within a small
factor of the MBAC reference.

Usage::

    python examples/design_comparison.py [--scenario basic] [--scale 0.01]
"""

import argparse

from repro import all_designs
from repro.experiments import get_scenario, scaled_seeds
from repro.experiments.figures import loss_load_curves
from repro.experiments.report import format_curves


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="basic",
                        help="Table-2 scenario name (see repro-eac list)")
    parser.add_argument("--scale", type=float, default=0.01,
                        help="run scale; 1.0 = paper scale")
    args = parser.parse_args()

    scenario = get_scenario(args.scenario)
    print(f"Scenario: {scenario.description} ({scenario.figure}), "
          f"scale {args.scale:g}, seeds {list(scaled_seeds(args.scale))}\n")

    # All five curves go out as one flat fan-out of (point, seed) runs.
    curves = loss_load_curves(
        scenario.config(args.scale), args.scale, all_designs(), narrow=True
    )
    print(format_curves(curves, title=f"Loss-load points: {args.scenario}"))

    floors = {c.label: min(c.losses) for c in curves}
    best = min(floors, key=floors.get)
    print(f"\nLowest achievable loss: {best} ({floors[best]:.2e})")


if __name__ == "__main__":
    main()
