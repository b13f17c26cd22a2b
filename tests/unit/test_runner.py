"""Unit tests for the scenario runner."""

import pytest

from repro.core.design import CongestionSignal, EndpointDesign, ProbeBand, ProbingScheme
from repro.errors import ConfigurationError
from repro.experiments.parallel import replicate_many, run_many
from repro.experiments.runner import MbacConfig, ScenarioConfig, run_scenario
from repro.traffic.catalog import get_source_spec
from repro.traffic.flowgen import FlowClass
from repro.units import mbps

FAST = dict(duration=120.0, warmup=40.0, lifetime_mean=30.0, link_rate_bps=mbps(2))

DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                        ProbingScheme.SLOW_START, epsilon=0.02)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(duration=100.0, warmup=100.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(topology="ring")


@pytest.mark.parametrize("build", [
    lambda: MbacConfig(target_utilization=0.0),
    lambda: MbacConfig(target_utilization=1.6),
    lambda: MbacConfig(target_utilization=float("nan")),
    lambda: MbacConfig(sample_period=0.0),
    lambda: MbacConfig(sample_period=-0.1),
    lambda: MbacConfig(sample_period=float("nan")),
    lambda: MbacConfig(sample_period=float("inf")),
    lambda: MbacConfig(window_samples=0),
    lambda: ScenarioConfig(prefill_fraction=-1.0),
    lambda: ScenarioConfig(prefill_fraction=float("nan")),
    lambda: ScenarioConfig(prefill_fraction=float("inf")),
], ids=[
    "target-zero", "target-above-1.5", "target-nan", "period-zero",
    "period-negative", "period-nan", "period-inf", "no-window-samples",
    "prefill-negative", "prefill-nan", "prefill-inf",
])
def test_bad_mbac_and_prefill_input_fails_at_construction(build):
    """Rejected when the spec is built, not when the first flow arrives."""
    with pytest.raises(ConfigurationError):
        build()


def test_config_freezes_classes_for_hashability():
    spec = get_source_spec("EXP1")
    config = ScenarioConfig(classes=[FlowClass(label="x", spec=spec)], **FAST)
    assert isinstance(config.classes, tuple)
    hash(config)


def test_eac_run_produces_sane_metrics():
    config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
    result = run_scenario(config, DESIGN)
    assert 0.0 < result.utilization <= 1.0
    assert 0.0 <= result.loss_probability < 1.0
    assert 0.0 <= result.blocking_probability <= 1.0
    assert result.offered > 0
    assert result.controller_name == DESIGN.name
    assert result.sim_seconds == 120.0
    assert "EXP1" in result.per_class


def test_mbac_run():
    config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
    result = run_scenario(config, MbacConfig(0.9))
    assert result.controller_name == "mbac(u=0.9)"
    assert result.utilization > 0


def test_no_controller_run():
    config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
    result = run_scenario(config, None)
    assert result.controller_name == "no-admission-control"
    assert result.blocking_probability == 0.0


def test_same_seed_reproduces_exactly():
    config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
    a = run_scenario(config, DESIGN)
    b = run_scenario(config, DESIGN)
    assert a.utilization == b.utilization
    assert a.loss_probability == b.loss_probability
    assert a.offered == b.offered


def test_different_seeds_differ():
    config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
    a = run_scenario(config, DESIGN)
    b = run_scenario(config.with_seed(2), DESIGN)
    assert (a.utilization, a.offered) != (b.utilization, b.offered)


def test_prefill_reaches_steady_state_quickly():
    # With prefill the measured utilization over a short window is already
    # near the offered load; without it the window sees the ramp-up only.
    base = ScenarioConfig(source="EXP1", interarrival=8.0,
                          duration=100.0, warmup=50.0, link_rate_bps=mbps(10))
    with_prefill = run_scenario(base, None)
    without = run_scenario(
        ScenarioConfig(source="EXP1", interarrival=8.0, duration=100.0,
                       warmup=50.0, link_rate_bps=mbps(10), prefill=False),
        None,
    )
    assert with_prefill.utilization > 1.5 * without.utilization


def test_parking_lot_topology_runs():
    spec = get_source_spec("EXP1")
    classes = (
        FlowClass(label="long", spec=spec, src="b0", dst="b3"),
        FlowClass(label="short0", spec=spec, src="in0", dst="out0"),
    )
    config = ScenarioConfig(classes=classes, interarrival=2.0,
                            topology="parking-lot", **FAST)
    result = run_scenario(config, DESIGN)
    assert len(result.per_link_utilization) == 3
    assert set(result.per_class) <= {"long", "short0"}


def test_replications_average():
    config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
    (rep,) = replicate_many([(config, DESIGN)], seeds=(1, 2, 3))
    # Per-seed results are run_many's job; the aggregate is their mean.
    runs = run_many([(config.with_seed(seed), DESIGN) for seed in (1, 2, 3)])
    assert rep.n_runs == len(runs) == 3
    assert rep.seeds == [r.seed for r in runs] == [1, 2, 3]
    utils = [r.utilization for r in runs]
    assert rep.utilization == pytest.approx(sum(utils) / 3)
    blocking = [r.per_class["EXP1"]["blocking_probability"] for r in runs]
    assert rep.class_mean("EXP1", "blocking_probability") == pytest.approx(
        sum(blocking) / 3)


def test_replications_need_seeds():
    config = ScenarioConfig(**FAST)
    with pytest.raises(ConfigurationError):
        replicate_many([(config, DESIGN)], seeds=())


def test_class_mean_missing_label_is_zero():
    config = ScenarioConfig(source="EXP1", interarrival=2.0, **FAST)
    (rep,) = replicate_many([(config, DESIGN)], seeds=(1,))
    assert rep.class_mean("NOPE", "loss_probability") == 0.0
