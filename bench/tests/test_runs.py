"""Two real ``--quick`` sets: names, determinism, the ledger, the workloads.

Slow (about two minutes): each set is ten child interpreters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from bench import ROOT, child_env, compare
from bench.ledger import LEDGER_ROWS
from bench.metrics import END_TO_END, EXACT, PER_LAYER

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def quick_set(path):
    subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--out", str(path)],
        cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=900,
    )
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def sets(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sets")
    return quick_set(tmp / "one.json"), quick_set(tmp / "two.json"), tmp


def test_every_name_in_the_spec_is_emitted_and_vice_versa(sets):
    first, _, _ = sets
    assert sorted(first["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for entry in first["workloads"].values():
        assert sorted(entry["end_to_end"]) == sorted(m[0] for m in END_TO_END)
        assert sorted(entry["per_layer"]) == sorted(m[0] for m in PER_LAYER)


def test_nothing_failed(sets):
    for report in sets[:2]:
        for name, entry in report["workloads"].items():
            assert entry["failed_share"] == 0, (name, entry["failures"])
            assert entry["attempted"] > 0


def test_two_sets_agree_on_counts_and_physics(sets):
    first, second, _ = sets
    for name, entry in first["workloads"].items():
        other = second["workloads"][name]
        assert entry["physics_digest"] == other["physics_digest"]
        for metric in EXACT:
            assert entry["per_layer"][metric] == other["per_layer"][metric], (name, metric)


def test_ledger_rows_sum_to_the_traced_wall(sets):
    for name, entry in sets[0]["workloads"].items():
        layer = entry["per_layer"]
        total = sum(layer[row] for row in LEDGER_ROWS)
        assert total == pytest.approx(layer["trace.wall_s"], rel=0.02), name
        assert layer["sim.loop_s"] >= 0 and layer["experiments.other_s"] >= 0
        assert layer["trace.overhead_ratio"] > 0


def test_each_workload_drives_the_layer_it_was_chosen_for(sets):
    layer = {n: e["per_layer"] for n, e in sets[0]["workloads"].items()}
    assert layer["link-steady"]["sim.events_per_pkt"] == pytest.approx(3.0, abs=0.03)
    assert layer["link-steady"]["mbac.samples"] == 0
    assert layer["probe-storm"]["faults.applied"] > 0
    assert layer["probe-storm"]["core.timed_out"] > 0
    assert layer["probe-storm"]["sim.cancelled"] > 0
    assert layer["parkinglot-mbac"]["mbac.samples"] > 0
    assert layer["sweep-cold"]["experiments.disk_hits"] == 0
    assert layer["sweep-cold"]["obs.trace_records"] > 0
    warm = layer["sweep-warm"]
    assert warm["experiments.disk_hits"] == warm["experiments.tasks"] > 0
    assert warm["sim.events"] == 0


def test_two_workers_reproduce_the_serial_sweep(sets):
    # A differing stream is a counted failure, so failed_share covers it;
    # this pins that the comparison actually ran.
    cold = sets[0]["workloads"]["sweep-cold"]
    assert cold["per_layer"]["experiments.jobs2_speedup"] > 0
    assert cold["failed"] == 0


def test_quick_sets_are_stamped_and_refused(sets):
    first, _, tmp = sets
    assert first["comparable"] is False
    assert compare.main([str(tmp / "one.json"), str(tmp / "two.json")]) == 2


def test_nothing_is_left_behind(sets):
    assert not (ROOT / ".bench_tmp").exists()


def test_callers_environment_cannot_change_a_number(sets, tmp_path):
    env = dict(child_env(), REPRO_CACHE_DIR=str(tmp_path / "user-cache"),
               REPRO_JOBS="2", REPRO_SCALE="0.5")
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "0.5", "--trace", "0", "--quick"],
        cwd=ROOT, env={**os.environ, **env}, check=True, capture_output=True,
        text=True, timeout=300,
    )
    detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
    assert detail["physics_digest"] == sets[0]["workloads"]["sweep-cold"]["physics_digest"]
    assert not (tmp_path / "user-cache").exists()
