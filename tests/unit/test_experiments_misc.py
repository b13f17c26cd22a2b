"""Unit tests for scenarios, loss-load curves, cache, reports, and the CLI."""

import pytest

from repro.core.design import CongestionSignal, EndpointDesign, ProbeBand, ProbingScheme
from repro.errors import ConfigurationError, ReproError
from repro.experiments import cache as run_cache
from repro.experiments import parallel
from repro.experiments.cli import EXPERIMENTS, build_parser, main, parse_design
from repro.experiments.figures import fixed_epsilon, loss_load_curves
from repro.experiments.lossload import LossLoadCurve, LossLoadPoint
from repro.experiments.report import format_curves, format_series, format_table
from repro.experiments.runner import ScenarioConfig
from repro.experiments.scenarios import (
    SCENARIOS,
    default_scale,
    get_scenario,
    heterogeneous_classes,
    scaled_seeds,
    scaled_times,
)
from repro.units import mbps

FAST = dict(duration=100.0, warmup=40.0, lifetime_mean=30.0,
            link_rate_bps=mbps(2))

DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                        ProbingScheme.SLOW_START)


class TestScenarios:
    def test_table2_rows_present(self):
        assert set(SCENARIOS) >= {
            "basic", "high-load", "burstier", "bigger", "lrd", "video",
            "heterogeneous", "low-mux",
        }
        # Table-2 rows carry no fault plan; fault variants all do.
        for name, spec in SCENARIOS.items():
            assert (spec.faults is not None) == (
                name.endswith(("-flaky", "-lossy", "-brownout"))
            )

    def test_basic_matches_table2(self):
        spec = get_scenario("basic")
        assert spec.source == "EXP1"
        assert spec.interarrival == 3.5

    def test_low_mux_uses_1mbps(self):
        assert get_scenario("low-mux").link_rate_bps == mbps(1)
        assert get_scenario("low-mux").interarrival == 35.0

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            get_scenario("nope")

    def test_scaled_times_full_scale_matches_paper(self):
        warmup, duration = scaled_times(1.0)
        assert warmup == 2000.0
        assert duration == 14000.0

    def test_scaled_times_small_scale(self):
        warmup, duration = scaled_times(0.05)
        assert warmup == 120.0
        assert duration == 720.0

    def test_scaled_seeds(self):
        assert scaled_seeds(1.0) == (1, 2, 3, 4, 5, 6, 7)
        assert scaled_seeds(0.05) == (1,)

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert default_scale() == 0.25
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ConfigurationError):
            default_scale()
        monkeypatch.setenv("REPRO_SCALE", "3")
        with pytest.raises(ConfigurationError):
            default_scale()

    def test_config_builds(self):
        config = get_scenario("heterogeneous").config(scale=0.01)
        labels = [c.label for c in config.resolve_classes()]
        assert labels == ["EXP1", "EXP2", "EXP4", "POO1"]

    def test_heterogeneous_mix_has_large_flow_class(self):
        specs = {c.label: c.spec for c in heterogeneous_classes()}
        assert specs["EXP2"].token_rate_bps == 4 * specs["EXP1"].token_rate_bps


class TestLossLoad:
    def test_eac_curve_has_point_per_epsilon(self):
        config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
        mbac, curve = loss_load_curves(config, 0.004, [DESIGN], narrow=True)
        assert [p.parameter for p in curve.points] == [0.0, fixed_epsilon(DESIGN)]
        assert curve.label == DESIGN.name
        assert mbac.label == "MBAC"

    def test_mbac_curve(self):
        config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
        (curve,) = loss_load_curves(config, 0.004, [], narrow=True)
        assert [p.parameter for p in curve.points] == [0.9, 1.1]
        assert curve.label == "MBAC"
        assert curve.utilizations == [p.utilization for p in curve.points]

    def test_interpolation(self):
        curve = LossLoadCurve("x", [
            LossLoadPoint(0.0, 0.5, 1e-4, 0.1),
            LossLoadPoint(0.1, 0.7, 3e-4, 0.2),
        ])
        assert curve.loss_at_utilization(0.6) == pytest.approx(2e-4)
        assert curve.loss_at_utilization(0.4) == 1e-4  # clamped low
        assert curve.loss_at_utilization(0.9) == 3e-4  # clamped high
        assert curve.loss_range() == (1e-4, 3e-4)

    def test_interpolation_empty_curve(self):
        with pytest.raises(ConfigurationError):
            LossLoadCurve("x", []).loss_at_utilization(0.5)


class TestCache:
    def test_cache_hits(self, tmp_path):
        run_cache.set_cache_dir(tmp_path)
        config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
        events = []
        (a,) = parallel.run_many([(config, DESIGN)], progress=events.append)
        (b,) = parallel.run_many([(config, DESIGN)], progress=events.append)
        assert a == b
        assert [e.source for e in events] == ["run", "disk"]
        assert run_cache.disk_cache_size() == 1

    def test_distinct_designs_distinct_entries(self, tmp_path):
        run_cache.set_cache_dir(tmp_path)
        config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
        parallel.run_many([(config, DESIGN), (config, DESIGN.with_epsilon(0.05))])
        assert run_cache.disk_cache_size() == 2

    def test_cached_replications(self, tmp_path):
        run_cache.set_cache_dir(tmp_path)
        config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
        (rep,) = parallel.replicate_many([(config, DESIGN)], seeds=(1, 2))
        assert rep.n_runs == 2
        assert rep.seeds == [1, 2]
        assert run_cache.disk_cache_size() == 2


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(("a", "bb"), [(1, 2.5), (10, 0.25)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_small_floats_scientific(self):
        text = format_table(("x",), [(1.5e-5,)])
        assert "1.50e-05" in text

    def test_format_series(self):
        text = format_series("t", [1, 2], {"u": [0.5, 0.6], "l": [0.1, 0.2]})
        assert "u" in text and "l" in text

    def test_format_curves(self):
        curve = LossLoadCurve("demo", [LossLoadPoint(0.0, 0.8, 1e-3, 0.2)])
        text = format_curves([curve], title="Figure X")
        assert "Figure X" in text
        assert "demo" in text


class TestCli:
    def test_parse_design(self):
        design = parse_design("mark/out-of-band", 0.05, "simple")
        assert design.signal is CongestionSignal.MARK
        assert design.band is ProbeBand.OUT_OF_BAND
        assert design.probing is ProbingScheme.SIMPLE
        assert design.epsilon == 0.05

    def test_parse_design_rejects_garbage(self):
        with pytest.raises(ReproError):
            parse_design("bogus", 0.0, "simple")
        with pytest.raises(ReproError):
            parse_design("drop/sideways", 0.0, "simple")

    def test_experiment_registry_covers_design_md_index(self):
        expected = {f"figure{i}" for i in list(range(1, 10)) + [11]}
        expected |= {f"table{i}" for i in range(3, 7)}
        assert set(EXPERIMENTS) == expected

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "basic" in out
        assert "figure2" in out

    def test_unknown_figure_errors(self, capsys):
        assert main(["figure", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
