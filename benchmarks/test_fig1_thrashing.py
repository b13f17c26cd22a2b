"""Paper claim: Figure 1 — fluid-model thrashing transition."""

from repro.experiments.figures import figure1


def test_figure1_thrashing():
    result = figure1()
    points = result.data

    utils = [p.utilization for p in points]
    losses = [p.loss_probability_inband for p in points]
    # Paper shape: high utilization before the transition, collapse after.
    assert utils[0] > 0.8
    assert utils[-1] < 0.1
    assert utils == sorted(utils, reverse=True)
    # In-band loss rises through the transition (out-of-band stays 0 by
    # construction: probe fluid is served strictly after data fluid).
    assert losses[-1] > losses[0]
    # Probing population accumulates past the transition.
    assert points[-1].mean_probing > 5 * points[0].mean_probing
