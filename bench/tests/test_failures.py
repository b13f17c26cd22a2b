"""A failing task is counted, not raised; the run still finishes and cleans up."""

from __future__ import annotations

import pytest

from bench import ROOT, run, workloads
from repro.experiments import cache


def test_injected_failure_moves_failed_and_not_the_exit_path(monkeypatch):
    real = workloads.run_scenario
    calls = []

    def flaky(config, design, profile=None):
        calls.append(config.seed)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real(config, design, profile=profile)

    monkeypatch.setattr(workloads, "run_scenario", flaky)
    before = cache.get_cache_dir()
    metrics, attempted, failed, detail = run.untraced("link-steady", 1, 0.5, quick=True)
    assert len(calls) >= 3 and attempted == len(calls)
    assert failed == 1
    assert "injected" in detail["failures"][0]
    assert metrics["wall_s"] > 0
    assert cache.get_cache_dir() == before
    assert not (ROOT / ".bench_tmp").exists()


def test_changed_physics_on_the_repeated_call_is_a_failure(monkeypatch):
    real = workloads.run_scenario
    calls = []

    def drifting(config, design, profile=None):
        calls.append(config.seed)
        result = real(config, design, profile=profile)
        if len(calls) > 1:
            result.offered += 1
        return result

    monkeypatch.setattr(workloads, "run_scenario", drifting)
    _, _, failed, detail = run.untraced("link-steady", 1, 0.0, quick=True)
    assert failed == 1
    assert "changed the physics" in detail["failures"][0]


def test_a_run_that_cannot_measure_raises(monkeypatch):
    def broken(config, design, profile=None):
        raise RuntimeError("always")

    monkeypatch.setattr(workloads, "run_scenario", broken)
    with pytest.raises(RuntimeError, match="no call"):
        run.untraced("link-steady", 1, 0.0, quick=True)
    assert not (ROOT / ".bench_tmp").exists()
