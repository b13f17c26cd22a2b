"""Paper claims: Figures 4-7 — high load (~400%), three probing algorithms.

The paper's claims: under heavy load, slow-start keeps utilization higher
than simple probing for the dropping designs (it minimizes thrashing);
for the out-of-band designs the loss frontiers of the three schemes are
close (thrashing causes starvation, not loss).
"""

import pytest

from repro.experiments.figures import figure4, figure5, figure6, figure7


def _mean_util(curve):
    return sum(curve.utilizations) / len(curve.utilizations)


@pytest.mark.parametrize("fig_fn", [figure4, figure5, figure6, figure7],
                         ids=["fig4-drop-in", "fig5-drop-out",
                              "fig6-mark-in", "fig7-mark-out"])
def test_high_load_probing_schemes(fig_fn):
    result = fig_fn()
    curves = {c.label: c for c in result.data}

    assert {"MBAC", "simple", "slow-start", "early-reject"} <= set(curves)
    # Under 400% offered load nothing should melt down or starve entirely.
    for label in ("simple", "slow-start", "early-reject"):
        for point in curves[label].points:
            assert point.utilization > 0.5, (result.name, label, point)
            assert point.blocking_probability > 0.4, (result.name, label)

    # Slow-start's purpose: at least match simple probing's utilization.
    assert _mean_util(curves["slow-start"]) >= _mean_util(curves["simple"]) - 0.02


def test_slow_start_beats_simple_on_in_band_dropping():
    """Figure 4's specific headline: in-band dropping thrashes with simple
    probing, and slow-start visibly mitigates it."""
    result = figure4()
    curves = {c.label: c for c in result.data}
    assert _mean_util(curves["slow-start"]) > _mean_util(curves["simple"])
