"""End-to-end observability contracts through the scenario runner.

The load-bearing guarantees: a traced run's JSONL is byte-identical
serial vs ``jobs=4``; tracing/metrics never perturb the simulation
results; profiles ride progress events (never cached results); and the
obs config is part of a run's cache identity.
"""

from dataclasses import replace

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.experiments import cache, parallel
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.obs import CallbackProfile, ObsConfig, parse_lines
from repro.obs.config import KNOWN_CATEGORIES
from repro.units import mbps

FAST = dict(duration=60.0, warmup=20.0, lifetime_mean=20.0,
            link_rate_bps=mbps(2))

DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                        ProbingScheme.SLOW_START)

OBS = ObsConfig(sample_every=(("tx", 50),))


def fast_config(seed: int = 1, obs: ObsConfig = None) -> ScenarioConfig:
    return ScenarioConfig(source="EXP1", interarrival=2.0, seed=seed,
                          obs=obs, **FAST)


class TestTracedRuns:
    def test_obs_off_by_default(self):
        result = run_scenario(fast_config(), DESIGN)
        assert result.trace is None
        assert result.metrics is None

    def test_instrumentation_does_not_perturb_results(self):
        plain = run_scenario(fast_config(), DESIGN)
        traced = run_scenario(fast_config(obs=OBS), DESIGN)
        assert traced.utilization == plain.utilization
        assert traced.loss_probability == plain.loss_probability
        assert traced.offered == plain.offered
        assert traced.blocked == plain.blocked
        assert traced.per_class == plain.per_class

    def test_trace_and_metrics_byte_identical_across_runs(self):
        a = run_scenario(fast_config(obs=OBS), DESIGN)
        b = run_scenario(fast_config(obs=OBS), DESIGN)
        assert a.trace == b.trace and a.trace
        assert a.metrics == b.metrics and a.metrics

    def test_trace_times_are_monotone_sim_time(self):
        result = run_scenario(fast_config(obs=OBS), DESIGN)
        times = [r["t"] for r in parse_lines(result.trace)]
        assert times == sorted(times)
        assert times[0] >= 0.0
        indices = [r["i"] for r in parse_lines(result.trace)]
        assert indices == list(range(len(times)))

    def test_filtered_tx_records_are_skipped_exactly(self):
        """Ports skip ``tx`` emits the recorder would filter: the other
        records are exactly those of the all-categories run (only the
        kept index ``i`` moves, since the ``tx`` records are gone)."""
        def records(obs):
            result = run_scenario(fast_config(obs=obs), DESIGN)
            return [{k: v for k, v in r.items() if k != "i"}
                    for r in parse_lines(result.trace)]

        everything = records(ObsConfig(max_records=10**6))
        no_tx = records(ObsConfig(
            categories=tuple(c for c in KNOWN_CATEGORIES if c != "tx"),
        ))
        assert {r["cat"] for r in everything} >= {"tx", "probe"}
        assert no_tx == [r for r in everything if r["cat"] != "tx"]

    def test_metrics_only_config_skips_trace(self):
        result = run_scenario(
            fast_config(obs=ObsConfig(trace=False)), DESIGN)
        assert result.trace is None
        assert result.metrics is not None
        names = {e["name"] for e in result.metrics["counters"]}
        assert "sim_events_dispatched" in names
        assert "flows_offered" in names
        assert "port_data_bytes" in names

    def test_serial_vs_jobs4_byte_identical(self):
        tasks = [(fast_config(seed, OBS), DESIGN) for seed in (1, 2, 3, 4)]
        serial = parallel.run_many(tasks, jobs=1)
        pooled = parallel.run_many(tasks, jobs=4)
        for s, p in zip(serial, pooled):
            assert s.trace == p.trace and s.trace
            assert s.metrics == p.metrics and s.metrics
        assert serial == pooled

    def test_obs_config_is_part_of_cache_identity(self):
        plain = fast_config()
        traced = fast_config(obs=OBS)
        assert cache.run_key(plain, DESIGN) != cache.run_key(traced, DESIGN)
        assert (cache.run_key(traced, DESIGN)
                != cache.run_key(replace(traced, obs=ObsConfig()), DESIGN))


class TestProfiledRuns:
    def test_profiled_scenario_equals_unprofiled(self):
        ticks = [0.0]

        def fake_clock():
            ticks[0] += 1.0
            return ticks[0]

        plain = run_scenario(fast_config(), DESIGN)
        profile = CallbackProfile(fake_clock)
        profiled = run_scenario(fast_config(), DESIGN, profile=profile)
        assert profiled == plain
        assert profile.snapshot(), "profile must have accumulated rows"

    def test_profile_rides_progress_events_when_enabled(self):
        events = []
        parallel.set_profile(True)
        try:
            parallel.run_many([(fast_config(), DESIGN)], jobs=1,
                              progress=events.append)
        finally:
            parallel.set_profile(False)
        (event,) = [e for e in events if e.source == "run"]
        assert event.profile, "run event must carry profile rows"
        keys = {key for key, _s, _c in event.profile}
        assert any("tx_done" in key or "OutputPort" in key for key in keys)

    def test_no_profile_rows_when_disabled(self):
        events = []
        parallel.run_many([(fast_config(), DESIGN)], jobs=1,
                          progress=events.append)
        (event,) = [e for e in events if e.source == "run"]
        assert event.profile == ()

    def test_tracker_aggregates_and_summarizes_profiles(self):
        tracker = parallel.ProgressTracker()
        parallel.set_profile(True)
        try:
            parallel.run_many([(fast_config(), DESIGN)], jobs=1,
                              progress=tracker)
        finally:
            parallel.set_profile(False)
        assert tracker.profile
        assert "profile (top callbacks):" in tracker.summary()

    def test_summary_has_no_profile_line_when_disabled(self):
        tracker = parallel.ProgressTracker()
        parallel.run_many([(fast_config(), DESIGN)], jobs=1,
                          progress=tracker)
        assert "profile" not in tracker.summary()
