"""BENCHMARK.json against the contract's shape and against the code."""

from __future__ import annotations

import json
import re

from bench import ROOT
from bench.metrics import END_TO_END, PER_LAYER, render

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

TEXT = (ROOT / "BENCHMARK.json").read_text()
SPEC = json.loads(TEXT)


def test_file_is_what_the_code_renders():
    assert TEXT == render()


def test_top_level_keys_and_sizes():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert len(TEXT.encode()) <= 64 * 1024
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len(SPEC["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/") for part in SPEC["command"])


def test_counts_within_the_contract():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_entries_have_exactly_their_keys():
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_names_and_units_are_well_formed_and_unique():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in entries]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")


def test_setup_metric_has_the_widest_bound():
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_code_and_file_list_the_same_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == [m[0] for m in END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [m[0] for m in PER_LAYER]
