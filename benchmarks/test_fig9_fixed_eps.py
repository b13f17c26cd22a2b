"""Benchmark: Figure 9 — loss variation across scenarios at a fixed epsilon.

Almost free when run after the Figure 2/4-8 benchmarks: every point is
served from the session's disk cache (``results/cache`` by default).
"""

from repro.experiments.figures import figure9


def test_figure9_loss_variation(benchmark, report):
    result = benchmark.pedantic(figure9, rounds=1, iterations=1)
    report.record("figure9", result.text)
    data = result.data

    assert len(data) == 4  # the four prototype designs
    for design, losses in data.items():
        assert len(losses) == 8  # the Figure-9 scenario set
        values = [v for v in losses.values() if v > 0]
        # Paper: "The loss rates show significant variation, at least an
        # order of magnitude in every case."
        if values:
            assert max(values) / min(values) > 3.0, design

    # In-band dropping has the highest fixed-eps losses overall.
    means = {d: sum(v.values()) / len(v) for d, v in data.items()}
    assert means["drop/in-band/slow-start"] == max(means.values())
