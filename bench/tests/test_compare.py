"""The verdict rule of ``bench.compare`` on made-up samples."""

from __future__ import annotations

import json

from bench import compare
from bench.host import summarize


def stats(samples):
    return {**summarize(samples), "samples": list(samples)}


def test_same_within_the_bound():
    a = stats([1.00, 1.01, 0.99, 1.00, 1.02])
    b = stats([1.04, 1.05, 1.03, 1.05, 1.06])
    assert compare.verdict(a, b, "lower", 0.10) == "same"


def test_worse_and_better_follow_the_direction():
    a = stats([1.00, 1.01, 0.99, 1.00, 1.02])
    slow = stats([1.20, 1.22, 1.19, 1.21, 1.20])
    assert compare.verdict(a, slow, "lower", 0.10) == "worse"
    assert compare.verdict(a, slow, "higher", 0.10) == "better"
    assert compare.verdict(slow, a, "lower", 0.10) == "better"


def test_noisy_parent_is_unresolved_unless_every_run_wins():
    a = stats([1.0, 1.3, 0.8, 1.2, 0.9])
    overlapping = stats([1.1, 1.4, 0.9, 1.3, 1.0])
    assert compare.verdict(a, overlapping, "lower", 0.10) == "unresolved"
    clear = stats([0.5, 0.6, 0.55, 0.52, 0.58])
    assert compare.verdict(a, clear, "lower", 0.10) == "better"
    assert compare.verdict(clear, stats([2.0, 2.1]), "lower", 0.001) == "worse"


def report(wall, failed_share=0.0, events=100.0):
    entry = {**stats(wall), "unit": "s"}
    return {
        "schema": 1, "comparable": True, "params": {"command": "x"},
        "workloads": {"link-steady": {
            "end_to_end": {"wall_s": entry},
            "failed_share": failed_share,
            "physics_digest": "d",
            "per_layer": {"sim.events": events},
        }},
    }


def test_exit_status_and_exact_counts():
    base = report([1.0, 1.01, 0.99])
    lines, status = compare.compare(base, report([1.0, 1.02, 0.98]))
    assert status == 0 and any("exact counts identical" in line for line in lines)
    lines, status = compare.compare(base, report([1.5, 1.51, 1.49]))
    assert status == 1 and any("worse" in line for line in lines)
    lines, status = compare.compare(base, report([1.0, 1.01, 0.99], failed_share=0.1))
    assert status == 1
    lines, status = compare.compare(base, report([1.0, 1.01, 0.99], events=99.0))
    assert status == 0 and any("sim.events 100 -> 99" in line for line in lines)


def test_quick_reports_are_refused(tmp_path):
    quick = dict(report([1.0, 1.0]), comparable=False)
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(quick))
    assert compare.main([str(path), str(path)]) == 2
