"""Paper claims: Figure 8(a-f) — robustness across source models.

One test per panel so ``--durations`` attributes the time; the session's disk
cache shares the MBAC reference and fixed-epsilon points with Figure 9 and
Table 4.
"""

import pytest

from repro.experiments.figures import FIGURE8_PANELS, figure8


@pytest.mark.parametrize("panel", FIGURE8_PANELS)
def test_figure8_panel(panel):
    result = figure8(panels=(panel,))
    curves = {c.label: c for c in result.data[panel]}

    # Paper: "In each graph the endpoint admission designs produce
    # loss-load frontiers that are reasonably close to the MBAC benchmark"
    # and utilization never fell below 50%.
    for label, curve in curves.items():
        for point in curve.points:
            assert point.utilization > 0.45, (panel, label, point)

    # "The in-band dropping design consistently has the highest dropping
    # rates, but ... for eps=0 ... roughly 2% or less."  (5% headroom for
    # single-seed noise at reduced scale.)
    drop_in = curves["drop/in-band/slow-start"]
    eps0 = next(p for p in drop_in.points if p.parameter == 0.0)
    assert eps0.loss_probability <= 0.05, (panel, eps0)
