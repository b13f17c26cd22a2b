"""Integration tests on the Figure-10 multi-link topology (Tables 5-6)."""

import pytest

from repro.core.design import CongestionSignal, EndpointDesign, ProbeBand, ProbingScheme
from repro.experiments.figures import multihop_classes
from repro.experiments.runner import MbacConfig, ScenarioConfig, run_scenario


def config(seed=3):
    return ScenarioConfig(
        classes=multihop_classes(), interarrival=1.8, topology="parking-lot",
        duration=400.0, warmup=200.0, seed=seed,
    )


DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                        ProbingScheme.SLOW_START, epsilon=0.0)


@pytest.fixture(scope="module")
def eac_result():
    return run_scenario(config(), DESIGN)


def test_all_classes_present(eac_result):
    assert set(eac_result.per_class) == {"long", "short0", "short1", "short2"}


def test_long_flows_lose_roughly_three_times_short(eac_result):
    """Table 5: long-flow loss ~ 3x short-flow loss (3 congested hops)."""
    shorts = [eac_result.per_class[f"short{i}"]["loss_probability"]
              for i in range(3)]
    mean_short = sum(shorts) / 3
    long_loss = eac_result.per_class["long"]["loss_probability"]
    assert mean_short > 1e-4, "too little short-flow loss to compare ratios"
    assert 1.5 * mean_short < long_loss < 6 * mean_short


def test_long_flows_blocked_more_than_short(eac_result):
    shorts = [eac_result.per_class[f"short{i}"]["blocking_probability"]
              for i in range(3)]
    long_block = eac_result.per_class["long"]["blocking_probability"]
    assert long_block > max(shorts)


def test_probing_across_multiple_hops_still_admits(eac_result):
    """The probing signal is not so degraded by 3 hops that nothing gets in."""
    assert eac_result.per_class["long"]["admitted"] > 0
    assert eac_result.per_class["long"]["blocking_probability"] < 0.95


def test_every_backbone_link_is_utilized(eac_result):
    assert len(eac_result.per_link_utilization) == 3
    for util in eac_result.per_link_utilization:
        assert util > 0.4


def test_mbac_long_flow_blocking_near_product_approximation():
    """Table 6: MBAC blocking is well modeled by independence across hops.

    Blocking probabilities need decision counts, so this test runs a
    longer window than the module's other tests.
    """
    long_config = ScenarioConfig(
        classes=multihop_classes(), interarrival=1.8, topology="parking-lot",
        duration=800.0, warmup=200.0, seed=3,
    )
    result = run_scenario(long_config, MbacConfig(0.9))
    shorts = [result.per_class[f"short{i}"]["blocking_probability"]
              for i in range(3)]
    product = 1.0
    for b in shorts:
        product *= 1.0 - b
    predicted = 1.0 - product
    actual = result.per_class["long"]["blocking_probability"]
    assert actual == pytest.approx(predicted, abs=0.25)
    assert actual > max(shorts)
