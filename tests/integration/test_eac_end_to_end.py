"""End-to-end integration tests of endpoint admission control.

Short (but statistically meaningful) whole-system runs checking the
paper's headline behaviors: admission control keeps loss bounded where the
uncontrolled class melts down, epsilon trades utilization against loss,
out-of-band/marking designs achieve lower loss floors, and slow-start
sustains utilization under overload.
"""

import pytest

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.experiments.runner import MbacConfig, ScenarioConfig, run_scenario
from repro.units import mbps

#: Short steady-state run of the basic scenario (prefill makes this valid).
BASIC = dict(source="EXP1", interarrival=3.5, duration=400.0, warmup=200.0,
             link_rate_bps=mbps(10), seed=3)


def eac(signal, band, probing=ProbingScheme.SLOW_START, eps=0.0, **kwargs):
    return EndpointDesign(signal, band, probing, epsilon=eps, **kwargs)


@pytest.fixture(scope="module")
def results():
    """Run the design matrix once for the whole module."""
    out = {}
    config = ScenarioConfig(**BASIC)
    out["none"] = run_scenario(config, None)
    out["mbac"] = run_scenario(config, MbacConfig(0.9))
    out["drop-in"] = run_scenario(config, eac(CongestionSignal.DROP, ProbeBand.IN_BAND))
    out["drop-out"] = run_scenario(config, eac(CongestionSignal.DROP, ProbeBand.OUT_OF_BAND))
    out["mark-in"] = run_scenario(config, eac(CongestionSignal.MARK, ProbeBand.IN_BAND))
    out["mark-out"] = run_scenario(config, eac(CongestionSignal.MARK, ProbeBand.OUT_OF_BAND))
    return out


def test_admission_control_beats_no_control_on_loss(results):
    uncontrolled = results["none"].loss_probability
    for key in ("drop-in", "drop-out", "mark-in", "mark-out", "mbac"):
        assert results[key].loss_probability < uncontrolled / 3


def test_admission_control_blocks_flows_under_overload(results):
    assert results["none"].blocking_probability == 0.0
    for key in ("drop-in", "drop-out", "mark-in", "mark-out"):
        assert 0.05 < results[key].blocking_probability < 0.7


def test_utilization_stays_reasonable(results):
    # Paper: "in none of our experiments was the achieved utilization less
    # than 50%".
    for key, result in results.items():
        assert result.utilization > 0.5


def test_loss_rates_stay_in_the_controlled_regime(results):
    # The paper's frontier comparison needs matched utilizations (the
    # benchmark suite does that via loss-load curves); here we assert the
    # absolute regime: every controller keeps loss in the low single
    # percents where the uncontrolled class is an order of magnitude worse.
    for key in ("mbac", "drop-in", "drop-out", "mark-in", "mark-out"):
        assert results[key].loss_probability < 0.02, key
    for key in ("drop-out", "mark-in", "mark-out"):
        assert results[key].loss_probability < 5e-3, key


def test_probe_traffic_is_a_small_fraction(results):
    for key in ("drop-in", "drop-out", "mark-in", "mark-out"):
        assert results[key].probe_utilization < 0.05


def test_epsilon_trades_loss_for_utilization(results):
    config = ScenarioConfig(**BASIC)
    design = eac(CongestionSignal.DROP, ProbeBand.IN_BAND)
    strict = results["drop-in"]  # the fixture's run is this design at eps=0
    loose = run_scenario(config, design.with_epsilon(0.05))
    assert loose.utilization >= strict.utilization - 0.02
    assert loose.blocking_probability <= strict.blocking_probability + 0.02


def test_slow_start_preserves_utilization_under_heavy_load():
    config = ScenarioConfig(source="EXP1", interarrival=1.0, duration=400.0,
                            warmup=200.0, seed=3)
    base = eac(CongestionSignal.DROP, ProbeBand.IN_BAND)
    slow = run_scenario(config, base.with_probing(ProbingScheme.SLOW_START))
    simple = run_scenario(config, base.with_probing(ProbingScheme.SIMPLE))
    assert slow.utilization > simple.utilization


def test_in_band_drop_floor_near_rule_of_thumb(results):
    """Paper Section 4.1: at eps=0, in-band dropping still loses ~0.4%
    (rule of thumb 1 - 2^(-P/(rT)) ~ 0.13%, observed ~3x that)."""
    assert 5e-4 < results["drop-in"].loss_probability < 2e-2


def test_out_of_band_marking_achieves_the_lowest_floor(results):
    drop_in, mark_out = results["drop-in"], results["mark-out"]
    assert mark_out.loss_probability < drop_in.loss_probability
