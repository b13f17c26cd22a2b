"""Paper claim: Table 4 — blocking for large vs small flows."""

from repro.experiments.figures import table4


def test_table4_large_flow_discrimination():
    result = table4()
    data = result.data

    assert "MBAC" in data
    # Everyone discriminates against the 4x-rate flows.  Blocking counts
    # per class are small at reduced scale, so require the direction for
    # MBAC plus the majority of EAC designs and for the EAC aggregate.
    assert data["MBAC"][1] > data["MBAC"][0]
    eac_rows = [(s, l) for label, (s, l) in data.items() if label != "MBAC"]
    assert sum(1 for s, l in eac_rows if l > s) >= 3
    mean_small = sum(s for s, __ in eac_rows) / len(eac_rows)
    mean_large = sum(l for __, l in eac_rows) / len(eac_rows)
    assert mean_large > mean_small

    # The MBAC discriminates hardest (its load estimate is precise, so it
    # admits a small flow exactly when a large one would not fit).
    mbac_ratio = data["MBAC"][1] / max(data["MBAC"][0], 1e-9)
    eac_ratios = [l / max(s, 1e-9) for s, l in eac_rows]
    assert mbac_ratio > min(eac_ratios)
