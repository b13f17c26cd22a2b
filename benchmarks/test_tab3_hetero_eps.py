"""Paper claim: Table 3 — blocking under heterogeneous acceptance thresholds."""

from repro.experiments.figures import table3


def test_table3_heterogeneous_thresholds():
    result = table3()
    data = result.data

    assert len(data) == 4
    # The paper's point: choosing a stricter epsilon only raises your own
    # blocking probability (service quality is shared).  Require the
    # direction for the majority of designs and for the aggregate (small
    # per-class decision counts at reduced scale make single rows noisy).
    right_direction = sum(
        1 for blocking in data.values()
        if blocking["low-eps"] > blocking["high-eps"]
    )
    assert right_direction >= 3
    mean_low = sum(b["low-eps"] for b in data.values()) / len(data)
    mean_high = sum(b["high-eps"] for b in data.values()) / len(data)
    assert mean_low > mean_high
    for blocking in data.values():
        assert 0.0 <= blocking["high-eps"] <= 1.0
