"""Paper claim: Figure 11 — TCP bandwidth share at a legacy router."""

from repro.experiments.figures import figure11


def steady_mean(series):
    tail = series[len(series) // 3:]
    return sum(tail) / len(tail)


def test_figure11_tcp_coexistence():
    result = figure11()
    series = result.data

    assert set(series) == {0.0, 0.01, 0.02, 0.03, 0.04, 0.05}
    # Strict thresholds: TCP-induced loss keeps AC flows out entirely.
    assert steady_mean(series[0.0]) > 0.9
    assert steady_mean(series[0.01]) > 0.85
    # Loose thresholds: the two classes split the link; AC never takes
    # substantially more than half on average (paper Section 4.7).
    assert steady_mean(series[0.05]) < steady_mean(series[0.0])
    for eps, tcp_share in series.items():
        assert steady_mean(tcp_share) > 0.30, eps
