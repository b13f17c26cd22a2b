"""Paper claim: Figure 3 — 5 s vs 25 s probing, in-band dropping."""

from repro.experiments.figures import figure3


def test_figure3_long_probing():
    result = figure3()
    curves = {c.label: c for c in result.data}

    short = curves["5-second probes"]
    long = curves["25-second probes"]

    # Longer probing reduces achievable loss...
    assert min(long.losses) <= min(short.losses)
    # ...but costs utilization (probe bandwidth + longer setup), the
    # paper's Figure-3 trade-off.
    assert max(long.utilizations) < max(short.utilizations) + 0.02
    mean_long = sum(long.utilizations) / len(long.utilizations)
    mean_short = sum(short.utilizations) / len(short.utilizations)
    assert mean_long <= mean_short
