"""The full set: rounds of fresh child interpreters, a traced pass, a report.

Closed loop, one client.  A *repeat* is one ``python -m bench run`` child,
started by this single driver process and run to completion before the next
starts (never two at once; the machine has two cores).  Rounds go
round-robin over the workloads so host drift hits all of them alike.  After
the untraced rounds, each workload gets one traced run for its per-layer
metrics.  A child that crashes counts as one failed attempt and the
remaining workloads still run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

from bench import ROOT, child_env
from bench.host import summarize
from bench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, UNITS

#: Report layout version; ``bench.compare`` refuses anything else.
SCHEMA = 1
#: Seconds one quick run measures for (two calls either way).
QUICK_SECONDS = 0.5
#: Longest a child may take before it is killed and counted as failed.
CHILD_TIMEOUT_S = 180


def run_child(
    workload: str, seed: int, seconds: float, trace: int, quick: bool,
) -> Optional[Dict[str, Any]]:
    """One ``python -m bench run`` child; ``None`` if it crashed or hung."""
    command = [
        sys.executable, "-m", "bench", "run", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    try:
        proc = subprocess.run(
            command, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"  {workload}: child timed out", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        print(f"  {workload}: child failed: {tail[0]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def digest_failures(runs: List[Dict[str, Any]], traced: Optional[Dict[str, Any]]) -> List[str]:
    """Calls of the same seed whose physics digest differs between runs."""
    out: List[str] = []
    columns = [run["detail"]["call_digests"] for run in runs]
    for call in range(max((len(c) for c in columns), default=0)):
        seen = {c[call] for c in columns if len(c) > call}
        if len(seen) > 1:
            out.append(f"call {call}: {len(seen)} different physics digests across repeats")
    if traced is not None and columns:
        if traced["detail"]["physics_digest"] != columns[0][0]:
            out.append("the profiled call's physics differs from the untraced one")
    return out


def workload_report(
    runs: List[Dict[str, Any]], traced: Optional[Dict[str, Any]], crashed: int,
) -> Dict[str, Any]:
    """Statistics of one workload over its repeats."""
    attempted = crashed + sum(r["attempted"] for r in runs)
    failed = crashed + sum(r["failed"] for r in runs)
    messages = [m for r in runs for m in r["detail"]["failures"]]
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        messages += traced["detail"]["failures"]
    mismatches = digest_failures(runs, traced)
    attempted += len(mismatches)
    failed += len(mismatches)
    end_to_end: Dict[str, Any] = {}
    for name, unit, _better, _bound in END_TO_END:
        samples = [r["metrics"][name]["value"] for r in runs]
        if samples:
            end_to_end[name] = {**summarize(samples), "unit": unit, "samples": samples}
    return {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "physics_digest": runs[0]["detail"]["physics_digest"] if runs else None,
        "parameters": runs[0]["detail"]["parameters"] if runs else None,
        "per_layer": {} if traced is None else {
            name: value["value"] for name, value in traced["metrics"].items()
        },
        "host": {
            "calib_s": [r["detail"]["calib_s"] for r in runs],
            "calib_drift": [r["detail"]["calib_drift"] for r in runs],
            "wall_raw_s": [r["detail"]["wall_raw_s"] for r in runs],
        },
        "failures": (messages + mismatches)[:10],
    }


def print_report(report: Dict[str, Any]) -> None:
    """Every metric by name with its unit, one workload after another."""
    n = report["params"]["repeats"]
    print(f"\nend to end: median [q1, q3] (min .. max) over {n} repeats; with "
          f"{n} samples no percentile beyond the quartiles is supported")
    for name, entry in report["workloads"].items():
        print(f"\n{name}   physics_digest {entry['physics_digest']}")
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric:<24} {s['median']:>12.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
                  f" ({s['min']:.5g} .. {s['max']:.5g}) n={s['n']} {s['unit']}")
        print(f"  {'failed_share':<24} {entry['failed_share']:>12.5g} "
              f"({entry['failed']} of {entry['attempted']}) {UNITS['failed_share']}")
        for message in entry["failures"]:
            print(f"    ! {message.strip().splitlines()[-1]}")
    layered = {n: e["per_layer"] for n, e in report["workloads"].items() if e["per_layer"]}
    if layered:
        print("\nper layer (one traced run each; 0 = not measured on this workload)")
        print(f"  {'':<28}" + "".join(f"{n:>17}" for n in layered))
        for metric, unit, _ in PER_LAYER:
            cells = "".join(f"{layered[n][metric]:>17.6g}" for n in layered)
            print(f"  {metric:<28}{cells} {unit}")


def main(
    seed: int, repeats: int, only: Optional[str], out: Optional[str], quick: bool,
) -> int:
    """Run the set, print it, optionally write it; exit 0 if it completed."""
    from bench.workloads import all_workloads

    names = list(all_workloads())
    if only is not None:
        if only not in names:
            print(f"unknown workload {only!r}; known: {', '.join(names)}", file=sys.stderr)
            return 2
        names = [only]
    if quick:
        repeats = 1
    seconds = QUICK_SECONDS if quick else RUN_SECONDS
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    crashed = dict.fromkeys(names, 0)
    for round_ in range(repeats):
        for name in names:
            print(f"round {round_ + 1}/{repeats}  {name}", file=sys.stderr)
            result = run_child(name, seed, seconds, 0, quick)
            if result is None:
                crashed[name] += 1
            else:
                runs[name].append(result)
    traced: Dict[str, Optional[Dict[str, Any]]] = {}
    for name in names:
        print(f"traced  {name}", file=sys.stderr)
        traced[name] = run_child(name, seed, seconds, 1, quick)
        if traced[name] is None:
            crashed[name] += 1
    report = {
        "schema": SCHEMA,
        # Quick and single-workload reports are for looking at, not comparing.
        "comparable": not quick and only is None,
        "params": {
            "seed": seed, "repeats": repeats, "seconds": seconds, "quick": quick,
            "command": "python -m bench " + " ".join(sys.argv[1:]),
            "python": platform.python_version(), "nproc": os.cpu_count(),
        },
        "workloads": {
            name: workload_report(runs[name], traced[name], crashed[name])
            for name in names
        },
    }
    print_report(report)
    if out is not None:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0
