#!/usr/bin/env python3
"""Crash drill: a faulted sweep survives a worker kill, byte-identically.

CI runs this end to end (DESIGN.md §10).  The script

1. runs a small sweep of fault-injected scenarios serially (``jobs=1``)
   as the reference sequence;
2. re-runs the identical sweep with two workers and a task hook that
   ``os._exit``'s the worker the first time it picks up one task —
   a faithful stand-in for an OOM kill mid-sweep;
3. asserts the crashed parallel sweep completed, retried only the
   affected tasks, and produced a byte-identical result sequence.

Exit status 0 means the crash-recovery contract held.

Usage::

    PYTHONPATH=src python examples/fault_smoke.py
"""

import dataclasses
import json
import os
import sys
import tempfile

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.experiments import cache, parallel
from repro.experiments.runner import ScenarioConfig
from repro.faults import FaultConfig
from repro.units import mbps

CRASH_SEED = 2
_MARKER = os.path.join(tempfile.gettempdir(), f"fault-smoke-{os.getpid()}")

DESIGN = EndpointDesign(
    CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SLOW_START,
).with_resilience(probe_timeout=2.0, probe_retries=2, retry_backoff=0.5)

FAULTS = FaultConfig(flap_every=15.0, flap_downtime=2.0,
                     loss_every=12.0, loss_duration=4.0, start=20.0)


def tasks():
    return [
        (ScenarioConfig(source="EXP1", interarrival=2.0, seed=seed,
                        duration=60.0, warmup=20.0, lifetime_mean=20.0,
                        link_rate_bps=mbps(2), faults=FAULTS), DESIGN)
        for seed in (1, 2, 3)
    ]


def crash_once(task):
    """Kill the worker the first time it computes CRASH_SEED's task."""
    if task[0].seed == CRASH_SEED and not os.path.exists(_MARKER):
        with open(_MARKER, "w") as fh:
            fh.write("x")
        os._exit(1)


def as_json(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def main() -> int:
    # Both sweeps must simulate every task, so no cache may serve or
    # keep a run.
    cache.set_cache_dir(None)
    print("serial reference sweep (jobs=1)...")
    serial = [as_json(r) for r in parallel.run_many(tasks(), jobs=1)]
    assert all(json.loads(r)["fault_events"] > 0 for r in serial), \
        "fault injection did not fire"

    print("parallel sweep with injected worker crash (jobs=2)...")
    events = []
    parallel.set_task_hook(crash_once)
    try:
        crashed = [as_json(r) for r in parallel.run_many(
            tasks(), jobs=2, progress=events.append,
        )]
    finally:
        parallel.set_task_hook(None)
        if os.path.exists(_MARKER):
            os.unlink(_MARKER)

    assert os.path.exists(_MARKER) is False
    retried = sorted({e.index for e in events if e.source == "retry"})
    runs = sorted(e.index for e in events if e.source == "run")
    assert retried, "the injected crash produced no retry round"
    assert 1 in retried, "the crashed task (seed 2) was not retried"
    assert runs == [0, 1, 2], f"expected one run per task, got {runs}"
    assert crashed == serial, "recovered sweep diverged from serial"

    print(f"ok: crash recovered; retried tasks {retried}; "
          "parallel output byte-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
