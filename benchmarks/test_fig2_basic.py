"""Paper claim: Figure 2 — basic-scenario loss-load curves (4 designs + MBAC)."""

from repro.experiments.figures import figure2


def test_figure2_basic_scenario():
    result = figure2()
    curves = {c.label: c for c in result.data}

    assert "MBAC" in curves
    assert "drop/in-band/slow-start" in curves
    assert "mark/out-of-band/slow-start" in curves

    # Every curve lives in the paper's utilization band (roughly 0.7-0.95)
    # with a non-meltdown loss level.
    for label, curve in curves.items():
        for point in curve.points:
            assert 0.6 < point.utilization < 1.0, (label, point)
            assert point.loss_probability < 0.05, (label, point)

    # In-band dropping cannot reach low loss: its floor exceeds the
    # out-of-band marking floor (the paper's headline range result).
    drop_in_floor = min(curves["drop/in-band/slow-start"].losses)
    mark_out_floor = min(curves["mark/out-of-band/slow-start"].losses)
    assert drop_in_floor > mark_out_floor
    # Paper: in-band dropping's minimal drop rate exceeds ~1e-3 even at
    # eps=0 (the accuracy floor of Section 4.1).
    assert drop_in_floor > 5e-4
