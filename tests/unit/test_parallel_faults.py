"""Crash tolerance of the parallel sweep harness.

Worker crashes are injected through :func:`parallel.set_task_hook` — the
hook runs at the top of ``_compute`` inside forked workers, so an
``os._exit`` there kills a live worker mid-sweep exactly like an OOM
kill.  A marker file in ``tmp_path`` makes the crash one-shot, letting
the retry round succeed.  The contract under test (DESIGN.md §10): the
sweep completes, retries only unfinished tasks, and yields a sequence
byte-identical to an undisturbed serial run.
"""

import dataclasses
import json
import os
import time
from concurrent.futures import Future

import pytest

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.errors import ConfigurationError, SweepTaskError, SweepWorkerError
from repro.experiments import cache, parallel
from repro.experiments.runner import ScenarioConfig
from repro.obs import ObsConfig
from repro.units import mbps

FAST = dict(duration=60.0, warmup=20.0, lifetime_mean=20.0,
            link_rate_bps=mbps(2))

DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                        ProbingScheme.SLOW_START)


def fast_config(seed: int = 1) -> ScenarioConfig:
    return ScenarioConfig(source="EXP1", interarrival=2.0, seed=seed, **FAST)


def tasks(n: int = 3):
    return [(fast_config(seed), DESIGN) for seed in range(1, n + 1)]


def as_json(result) -> str:
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def crash_once_hook(tmp_path, crash_seed: int):
    """Kill the worker the first time it picks up ``crash_seed``'s task."""
    marker = tmp_path / f"crashed-{crash_seed}"

    def hook(task):
        if task[0].seed == crash_seed and not marker.exists():
            marker.write_text("x")
            os._exit(1)

    return hook


class TestCrashRecovery:
    def test_sweep_survives_crash_and_matches_serial(self, tmp_path):
        serial = [as_json(r) for r in parallel.run_many(tasks(), jobs=1)]

        events = []
        parallel.set_task_hook(crash_once_hook(tmp_path, crash_seed=2))
        crashed = [as_json(r) for r in parallel.run_many(
            tasks(), jobs=2, progress=events.append
        )]
        parallel.set_task_hook(None)

        assert crashed == serial
        retried = {e.index for e in events if e.source == "retry"}
        assert 1 in retried              # the crashed task (seed 2) retried
        # Retries touch only tasks unfinished at crash time; every task
        # still produces exactly one terminal "run" event.
        runs = sorted(e.index for e in events if e.source == "run")
        assert runs == [0, 1, 2]

    def test_crash_refills_the_cache_completely(self, tmp_path):
        cache.set_cache_dir(tmp_path / "cache")
        parallel.set_task_hook(crash_once_hook(tmp_path, crash_seed=1))
        parallel.run_many(tasks(), jobs=2)
        parallel.set_task_hook(None)
        # A re-run is pure cache: no "run" events at all.
        events = []
        parallel.run_many(tasks(), jobs=2, progress=events.append)
        assert {e.source for e in events} == {"disk"}

    def test_persistent_crash_exhausts_retry_budget(self, monkeypatch):
        def always_crash(task):
            if task[0].seed == 2:
                os._exit(1)

        monkeypatch.setattr(parallel, "DEFAULT_TASK_RETRIES", 1)
        parallel.set_task_hook(always_crash)
        try:
            with pytest.raises(SweepWorkerError, match="retry budget"):
                parallel.run_many(tasks(), jobs=2)
        finally:
            parallel.set_task_hook(None)

    def test_stalled_pool_is_recycled(self, tmp_path, monkeypatch):
        marker = tmp_path / "stalled"

        def stall_once(task):
            if task[0].seed == 2 and not marker.exists():
                marker.write_text("x")
                time.sleep(6.0)

        serial = [as_json(r) for r in parallel.run_many(tasks(), jobs=1)]
        events = []
        # The deadline must clear a genuine run (~0.5 s) with margin but
        # sit well under the injected 6 s hang; generous retries keep a
        # slow CI box from burning the budget on load spikes.
        parallel.set_task_timeout(2.0)
        monkeypatch.setattr(parallel, "DEFAULT_TASK_RETRIES", 5)
        parallel.set_task_hook(stall_once)
        try:
            stalled = [as_json(r) for r in parallel.run_many(
                tasks(), jobs=2, progress=events.append,
            )]
        finally:
            parallel.set_task_hook(None)
        assert stalled == serial
        assert any(e.source == "retry" for e in events)


def spy_pools(monkeypatch, respawn: bool = True):
    """Wrap ``_new_pool``: returns ``(created, shut)`` lists of pools.

    With ``respawn=False`` only the first call gets a pool; later calls
    get ``None``, as on a platform that ran out of process support.
    """
    real_new_pool = parallel._new_pool
    created, shut = [], []

    def new_pool(workers):
        if created and not respawn:
            return None
        pool = real_new_pool(workers)
        real_shutdown = pool.shutdown

        def shutdown(*args, **kwargs):
            shut.append(pool)
            return real_shutdown(*args, **kwargs)

        pool.shutdown = shutdown
        created.append(pool)
        return pool

    monkeypatch.setattr(parallel, "_new_pool", new_pool)
    return created, shut


class TestOneLoop:
    """One harvest loop serves serial, pooled and pool-less sweeps."""

    def test_pool_less_sweep_computes_one_task_per_pull(self, monkeypatch):
        serial = [as_json(r) for r in parallel.run_many(tasks(), jobs=1)]
        monkeypatch.setattr(parallel, "_new_pool", lambda workers: None)
        computed = []
        parallel.set_task_hook(lambda task: computed.append(task[0].seed))
        sweep = parallel.iter_run_results(tasks(), jobs=2)
        first = next(sweep)
        assert computed == [1]
        assert [as_json(r) for r in [first, *sweep]] == serial
        assert computed == [1, 2, 3]

    def test_respawn_without_a_pool_finishes_in_process(
        self, tmp_path, monkeypatch
    ):
        serial = [as_json(r) for r in parallel.run_many(tasks(), jobs=1)]
        created, shut = spy_pools(monkeypatch, respawn=False)
        parallel.set_task_hook(crash_once_hook(tmp_path, crash_seed=2))
        events = []
        crashed = [as_json(r) for r in parallel.run_many(
            tasks(), jobs=2, progress=events.append
        )]
        assert crashed == serial
        assert any(e.source == "retry" for e in events)
        runs = sorted(e.index for e in events if e.source == "run")
        assert runs == [0, 1, 2]
        assert len(created) == 1 and shut == created

    def test_a_finished_batch_is_stored_before_the_first_yield(
        self, tmp_path, monkeypatch
    ):
        class DonePool:
            """Every future has finished by the time ``submit`` returns."""

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(parallel, "_new_pool", lambda workers: DonePool())
        cache.set_cache_dir(tmp_path)
        events = []
        sweep = parallel.iter_run_results(tasks(), jobs=2,
                                          progress=events.append)
        next(sweep)
        sweep.close()
        assert sorted(e.index for e in events if e.source == "run") == [0, 1, 2]
        assert len(list(tmp_path.glob("*.json"))) == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_abandoned_sweep_keeps_harvested_work_only(
        self, tmp_path, monkeypatch, jobs
    ):
        obs = ObsConfig(timeseries=True, timeseries_interval=10.0,
                        sample_every=(("tx", 200),))
        obs_tasks = [(dataclasses.replace(config, obs=obs), spec)
                     for config, spec in tasks()]
        cache_dir = tmp_path / "cache"
        cut, resumed, whole = (tmp_path / name for name in
                               ("obs-cut", "obs-resumed", "obs-whole"))
        created, shut = spy_pools(monkeypatch)
        cache.set_cache_dir(cache_dir)
        parallel.set_obs_dir(str(cut))
        events = []
        sweep = parallel.iter_run_results(
            obs_tasks, jobs=jobs, progress=events.append
        )
        next(sweep)
        sweep.close()

        harvested = {cache.run_key(*obs_tasks[e.index])
                     for e in events if e.source == "run"}
        assert {p.stem for p in cache_dir.glob("*.json")} == harvested
        for directory in (cache_dir, cut):
            assert not list(directory.glob("*.tmp*"))
        assert not (cut / "manifest.json").exists()
        assert len(created) == (jobs > 1) and shut == created

        parallel.set_obs_dir(str(resumed))
        events = []
        parallel.run_many(obs_tasks, jobs=jobs, progress=events.append)
        assert sum(e.source == "disk" for e in events) == len(harvested)
        cache.set_cache_dir(None)
        parallel.set_obs_dir(str(whole))
        parallel.run_many(obs_tasks, jobs=1)

        def contents(directory):
            return {p.name: p.read_bytes() for p in directory.iterdir()}

        assert (whole / "manifest.json").exists()
        assert contents(resumed) == contents(whole)


class TestDeterministicFailure:
    def _boom_hook(self, crash_seed: int):
        def hook(task):
            if task[0].seed == crash_seed:
                raise ValueError("injected deterministic failure")

        return hook

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_exception_aborts_with_run_key(self, jobs):
        parallel.set_task_hook(self._boom_hook(crash_seed=2))
        events = []
        try:
            with pytest.raises(SweepTaskError) as excinfo:
                parallel.run_many(tasks(), jobs=jobs, progress=events.append)
        finally:
            parallel.set_task_hook(None)
        err = excinfo.value
        assert err.task_index == 1
        assert err.run_key == cache.run_key(fast_config(2), DESIGN)
        assert err.run_key in str(err)
        failed = [e for e in events if e.source == "failed"]
        assert [e.index for e in failed] == [1]
        assert "injected deterministic failure" in failed[0].error

    def test_failed_task_is_never_retried(self):
        calls = []

        def hook(task):
            if task[0].seed == 2:
                calls.append(task[0].seed)
                raise ValueError("boom")

        parallel.set_task_hook(hook)
        try:
            with pytest.raises(SweepTaskError):
                parallel.run_many(tasks(), jobs=1)
        finally:
            parallel.set_task_hook(None)
        assert len(calls) == 1


class TestKnobs:
    def test_task_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            parallel.set_task_timeout(0.0)
        with pytest.raises(ConfigurationError):
            parallel.set_task_timeout(-5.0)

    def test_task_timeout_roundtrip(self):
        parallel.set_task_timeout(12.5)
        assert parallel._configured_task_timeout == 12.5
        parallel.set_task_timeout(None)
        assert parallel._configured_task_timeout is None

    def test_progress_summary_counts_failures_and_retries(self):
        tracker = parallel.ProgressTracker()
        base = dict(total=3, controller="c", seed=1, seconds=0.0)
        tracker(parallel.RunEvent(index=0, source="run", **base))
        tracker(parallel.RunEvent(index=1, source="retry",
                                  error="attempt 2 of 3", **base))
        tracker(parallel.RunEvent(index=1, source="failed",
                                  error="ValueError('x')", **base))
        summary = tracker.summary()
        assert "1 retries" in summary
        assert "1 failures" in summary
