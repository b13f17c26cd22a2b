"""One run of one workload: what the contract's command executes.

``python -m bench run --workload W --seed N --seconds S --trace 0|1``.
With ``--trace 0`` the run measures set-up (fresh child interpreters, then
one warm-up call), makes timed calls for ``S`` seconds (at least one, the
first of which repeats the warm-up's inputs and must reproduce its physics
digest), and prints the end-to-end metrics.  With ``--trace 1`` it prints the per-layer
metrics instead (:mod:`bench.ledger`).  The last line of standard output is
the contract's result object; the line before it carries details (digests,
raw times, failure messages) for the full set and for people.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from bench import ROOT, child_env, host
from bench.host import Span, SpanTimer

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 3
#: Everything a run writes lives under here, inside the checkout.
TMP_PARENT = ROOT / ".bench_tmp"
#: Failure messages carried in the detail line.
_MESSAGES_KEPT = 10


@contextmanager
def temp_root() -> Iterator[Path]:
    """One directory for every cache/obs/export file of the run.

    Removed on success, failure and Ctrl-C alike; the parent goes too when
    no other run is using it.
    """
    TMP_PARENT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="run-", dir=TMP_PARENT) as tmp:
            yield Path(tmp)
    finally:
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass


def measure_setup(workload: str, seed: int, probes: int) -> List[Span]:
    """Spawn -> inputs ready of ``probes`` fresh interpreters, one at a time."""
    spans: List[Span] = []
    for _ in range(probes):
        spawned = host.now()
        proc = subprocess.run(
            [sys.executable, "-m", "bench.setup_probe", workload, str(seed)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        )
        info = json.loads(proc.stdout.splitlines()[-1])
        spans.append(Span(info["ready_at"] - spawned, 0.0, info["calib"]))
    return spans


def untraced(
    name: str, seed: int, seconds: float, quick: bool,
) -> Tuple[Dict[str, float], int, int, Dict[str, Any]]:
    """The end-to-end metrics of one run, with every hook off."""
    from bench.workloads import Harness, Outcome, all_workloads

    workload = all_workloads(quick)[name]
    setups = measure_setup(name, seed, 1 if quick else SETUP_PROBES)
    setup_s = statistics.median(s.wall_ref for s in setups)
    messages: List[str] = []
    attempted = failed = 0
    with temp_root() as tmp:
        harness = Harness(tmp, SpanTimer())
        per_call = workload.tasks_per_call()

        def checked_call(call: int) -> Optional[Outcome]:
            """One call, its failures counted; ``None`` if it raised."""
            nonlocal attempted, failed
            attempted += per_call
            try:
                outcome = workload.call(workload.inputs(seed, call), harness)
            except Exception:  # a failing call is a result, not a crash
                failed += per_call
                messages.append(traceback.format_exc(limit=3))
                return None
            failed += min(len(outcome.failures), per_call)
            messages.extend(outcome.failures)
            return outcome

        # Set-up ends with one unmeasured call on the inputs of call 0: it
        # pays lazy imports and allocator growth, and the first timed call
        # must reproduce its physics.
        setup_s += sum(s.wall_ref for s in workload.prepare(seed, harness))
        warm = checked_call(0)
        if warm is not None:
            setup_s += sum(s.wall_ref for s in warm.spans)
        began = time.perf_counter()
        first = checked_call(0)
        timed = [first]
        while time.perf_counter() - began < seconds:
            timed.append(checked_call(len(timed)))
        outcomes = [outcome for outcome in timed if outcome is not None]
        run_failures = workload.run_failures(outcomes)
        if warm is not None and first is not None and first.digest != warm.digest:
            run_failures.append("repeating the first inputs changed the physics")
        attempted += len(run_failures)
        failed += len(run_failures)
        messages += run_failures
        rss = host.peak_rss_mb()
        calibrations = harness.timer.calibrations
    if not outcomes:
        raise RuntimeError(f"no call of {name} returned:\n{messages[0]}")

    walls = [sum(s.wall_ref for s in o.spans) for o in outcomes]
    cpus = [sum(s.cpu_ref for s in o.spans) for o in outcomes]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.mean(walls),
        "cpu_s": statistics.mean(cpus),
        "sim_rate": sum(o.sim_seconds for o in outcomes) / sum(walls),
        "peak_rss_mb": rss,
    }
    config, controller = workload.first_task(workload.inputs(seed, 0))
    detail = {
        "parameters": {
            "first_task": f"{config!r} under {controller!r}",
            "tasks_per_call": per_call,
        },
        "calls": len(outcomes),
        "physics_digest": outcomes[0].digest,
        "call_digests": [o.digest for o in outcomes],
        "call_wall_s": walls,
        "wall_raw_s": statistics.mean(sum(s.wall for s in o.spans) for o in outcomes),
        "setup_raw_s": [s.wall for s in setups],
        "calib_s": statistics.median(calibrations),
        "calib_drift": calibrations[-1] / calibrations[0],
        "failures": messages[:_MESSAGES_KEPT],
    }
    return metrics, attempted, failed, detail


def traced(
    name: str, seed: int, quick: bool,
) -> Tuple[Dict[str, float], int, int, Dict[str, Any]]:
    """The per-layer metrics of one run."""
    from bench.ledger import trace_run
    from bench.workloads import Harness, all_workloads

    with temp_root() as tmp:
        harness = Harness(tmp, SpanTimer())
        metrics, attempted, failed, messages, digest = trace_run(
            all_workloads(quick)[name], seed, harness
        )
    detail = {"physics_digest": digest, "failures": messages[:_MESSAGES_KEPT]}
    return metrics, attempted, failed, detail


def main(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> int:
    """Run once; print the detail line, then the contract's result line."""
    from bench.metrics import UNITS

    if trace:
        metrics, attempted, failed, detail = traced(workload, seed, quick)
    else:
        metrics, attempted, failed, detail = untraced(workload, seed, seconds, quick)
    detail.update(workload=workload, seed=seed, seconds=seconds, trace=trace, quick=quick)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0
