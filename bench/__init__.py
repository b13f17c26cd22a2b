"""The repo benchmark: five workloads, end-to-end metrics, a by-layer ledger.

``python -m bench`` runs the full set (rounds of fresh child interpreters,
one traced pass, a report); ``python -m bench run --workload W --seed N
--seconds S --trace 0|1`` is one run of one workload and is what both the
full set and the contract in ``BENCHMARK.json`` execute.  See
``bench/README.md`` for the metric and workload tables and the measurement
protocol.

The benchmark drives the program only through its public functions and
owns its own yardstick (:mod:`bench.host`), so nothing under ``src/`` can
move a number except by doing more or less work.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict

#: Root of the checkout: the directory holding ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment variables of the program that could change a number; the
#: benchmark sets jobs, scale and cache directory explicitly instead.
_PROGRAM_ENV = ("REPRO_JOBS", "REPRO_SCALE", "REPRO_CACHE_DIR")

# ``python3 -m bench`` from the checkout root must find the program without
# a PYTHONPATH prefix (the contract's command cannot set one), and it must
# be this checkout's program, not one installed elsewhere.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: program importable, knobs unset."""
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    inherited = env.get("PYTHONPATH")
    paths = [str(SRC), str(ROOT)] + ([inherited] if inherited else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
