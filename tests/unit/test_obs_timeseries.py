"""Time-series sampler, span assembly, and merge contracts end to end.

The tentpole guarantees (DESIGN.md §14): the periodic sampler never
perturbs the simulation; its payload is byte-identical serial vs
``jobs=4`` and survives the disk-cache round-trip; spans assembled from
a traced fault run reconcile with the run's admission counts; and the
deterministic merge of per-run traces is byte-preserving.
"""

import json

import pytest

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.errors import ConfigurationError
from repro.experiments import cache, parallel
from repro.experiments.runner import MbacConfig, ScenarioConfig, run_scenario
from repro.faults import FaultConfig
from repro.obs import ObsConfig, assemble_spans, parse_lines, span_counts
from repro.obs.merge import merge_streams
from repro.units import mbps

FAST = dict(duration=60.0, warmup=20.0, lifetime_mean=20.0,
            link_rate_bps=mbps(2))

DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                        ProbingScheme.SLOW_START)

TS_OBS = ObsConfig(metrics=False, trace=False, timeseries=True,
                   timeseries_interval=5.0)


def fast_config(seed: int = 1, obs: ObsConfig = None, **overrides):
    params = dict(FAST, **overrides)
    return ScenarioConfig(source="EXP1", interarrival=2.0, seed=seed,
                          obs=obs, **params)


class TestObsConfigValidation:
    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            ObsConfig(timeseries=True, timeseries_interval=0.0)
        with pytest.raises(ConfigurationError):
            ObsConfig(timeseries=True, timeseries_interval=float("inf"))

    def test_bad_max_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            ObsConfig(timeseries=True, timeseries_max_samples=0)

    def test_timeseries_alone_enables_obs(self):
        assert TS_OBS.enabled
        assert not ObsConfig(metrics=False, trace=False).enabled


class TestSampler:
    def test_off_by_default(self):
        assert run_scenario(fast_config(), DESIGN).timeseries is None

    def test_payload_shape(self):
        result = run_scenario(fast_config(obs=TS_OBS), DESIGN)
        ts = result.timeseries
        assert ts["v"] == 1
        assert ts["interval"] == 5.0
        # t=0 sample plus one per interval over the 60 s run.
        assert ts["t"][0] == 0.0
        assert ts["t"] == sorted(ts["t"])
        assert len(ts["t"]) == 13
        for values in ts["series"].values():
            assert len(values) == len(ts["t"])
        names = set(ts["series"])
        assert "port:src->dst:util" in names
        assert "port:src->dst:backlog" in names
        assert "port:src->dst:drops" in names
        assert "class:EXP1:live" in names
        assert "class:EXP1:load_bps" in names
        assert "class:EXP1:accepts" in names
        assert "class:EXP1:rejects" in names
        assert not any(n.startswith("mbac:") for n in names)

    def test_mbac_estimator_column(self):
        result = run_scenario(fast_config(obs=TS_OBS),
                              MbacConfig(target_utilization=0.9))
        series = result.timeseries["series"]
        assert "mbac:src->dst:estimate_bps" in series
        assert max(series["mbac:src->dst:estimate_bps"]) > 0.0

    def test_max_samples_cap(self):
        obs = ObsConfig(metrics=False, trace=False, timeseries=True,
                        timeseries_interval=1.0, timeseries_max_samples=7)
        result = run_scenario(fast_config(obs=obs), DESIGN)
        assert len(result.timeseries["t"]) == 7
        assert result.timeseries["t"][-1] == 6.0

    def test_sampler_does_not_perturb_results(self):
        plain = run_scenario(fast_config(), DESIGN)
        sampled = run_scenario(fast_config(obs=TS_OBS), DESIGN)
        assert sampled.utilization == plain.utilization
        assert sampled.loss_probability == plain.loss_probability
        assert sampled.offered == plain.offered
        assert sampled.admitted == plain.admitted
        assert sampled.per_class == plain.per_class

    @pytest.mark.parametrize("warmup", [20.0, 22.5],
                             ids=["boundary-on-a-sample", "boundary-between"])
    def test_util_conserves_bytes_across_the_warmup_boundary(self, warmup):
        # Referee: the tx trace, which never looks at a port counter.
        obs = ObsConfig(metrics=False, trace=True, categories=("tx",),
                        timeseries=True, timeseries_interval=5.0)
        sampled = run_scenario(fast_config(obs=obs, warmup=warmup), DESIGN)
        ts = sampled.timeseries
        util = ts["series"]["port:src->dst:util"]
        sampled_bytes = sum(u * FAST["link_rate_bps"] * 5.0 / 8 for u in util)
        tx_bytes = sum(
            rec["size"] for rec in parse_lines(sampled.trace)
            if rec["port"] == "src->dst" and rec["t"] <= ts["t"][-1]
        )
        assert sampled_bytes == pytest.approx(tx_bytes, rel=1e-9)
        # No phantom outage where the measured window begins.
        assert all(u > 0.0 for t, u in zip(ts["t"], util) if t >= 5.0)
        plain = run_scenario(fast_config(warmup=warmup), DESIGN)
        for name in ("utilization", "loss_probability", "blocking_probability",
                     "offered", "admitted", "per_class",
                     "per_link_utilization", "probe_utilization"):
            assert getattr(sampled, name) == getattr(plain, name), name

    def test_values_track_admitted_load(self):
        result = run_scenario(fast_config(obs=TS_OBS), DESIGN)
        series = result.timeseries["series"]
        assert max(series["class:EXP1:live"]) > 0
        assert max(series["class:EXP1:load_bps"]) > 0
        assert sum(series["class:EXP1:accepts"]) >= 1
        assert max(series["port:src->dst:util"]) > 0.0
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in series["port:src->dst:util"])

    def test_serial_vs_jobs4_byte_identical(self):
        tasks = [(fast_config(seed, TS_OBS), DESIGN) for seed in (1, 2, 3, 4)]
        serial = parallel.run_many(tasks, jobs=1)
        pooled = parallel.run_many(tasks, jobs=4)
        canon = lambda ts: json.dumps(ts, sort_keys=True,
                                      separators=(",", ":"))
        for s, p in zip(serial, pooled):
            assert s.timeseries and canon(s.timeseries) == canon(p.timeseries)

    def test_timeseries_config_in_cache_identity(self):
        plain = fast_config()
        sampled = fast_config(obs=TS_OBS)
        assert cache.run_key(plain, DESIGN) != cache.run_key(sampled, DESIGN)

    def test_disk_cache_round_trip(self, tmp_path):
        cache.set_cache_dir(str(tmp_path))
        config = fast_config(obs=TS_OBS)
        (computed,) = parallel.run_many([(config, DESIGN)])
        reloaded, tier = cache.lookup(config, DESIGN)
        assert tier == "disk"
        assert reloaded.timeseries == computed.timeseries
        assert reloaded == computed


FAULTS = FaultConfig(flap_every=25.0, flap_downtime=4.0)

TRACE_OBS = ObsConfig(metrics=False, sample_every=(("tx", 200),))


class TestSpanReconciliation:
    def test_spans_reconcile_with_decision_counts(self):
        config = fast_config(obs=TRACE_OBS, faults=FAULTS)
        result = run_scenario(config, DESIGN)
        spans = assemble_spans(parse_lines(result.trace))
        assert spans, "a traced fault run must produce spans"
        # The run measures only past warm-up; spans cover the whole run,
        # so reconcile over the measured window.
        measured = [s for s in spans
                    if s.end is not None and s.end >= config.warmup]
        counts = span_counts(measured)
        assert counts["pending"] == 0
        assert counts["admit"] == result.admitted
        assert sum(counts.values()) == result.offered
        assert counts["timeout"] + counts["renege"] == result.timed_out

    def test_span_fields_populated(self):
        result = run_scenario(fast_config(obs=TRACE_OBS), DESIGN)
        spans = assemble_spans(parse_lines(result.trace))
        decided = [s for s in spans if s.outcome in ("admit", "reject")]
        assert decided
        for span in decided:
            assert span.label == "EXP1"
            assert span.end >= span.start
            assert span.fraction is not None
            assert span.recorder == result.controller_name + "/s1"


class TestMergedRuns:
    def test_merge_of_two_seeds_is_byte_preserving(self):
        a = run_scenario(fast_config(seed=1, obs=TRACE_OBS), DESIGN)
        b = run_scenario(fast_config(seed=2, obs=TRACE_OBS), DESIGN)
        merged = merge_streams([a.trace, b.trace])
        assert sorted(merged) == sorted(a.trace + b.trace)
        keys = [(r["t"], r["recorder"], r["i"])
                for r in parse_lines(merged)]
        assert keys == sorted(keys)

    def test_spans_from_merged_stream_keep_runs_apart(self):
        a = run_scenario(fast_config(seed=1, obs=TRACE_OBS), DESIGN)
        b = run_scenario(fast_config(seed=2, obs=TRACE_OBS), DESIGN)
        merged_spans = assemble_spans(parse_lines(
            merge_streams([a.trace, b.trace])))
        solo = (len(assemble_spans(parse_lines(a.trace)))
                + len(assemble_spans(parse_lines(b.trace))))
        assert len(merged_spans) == solo
        recorders = {s.recorder for s in merged_spans}
        assert len(recorders) == 2
