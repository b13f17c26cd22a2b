"""Unit tests for the closed-form analysis helpers."""

import itertools
import math

import pytest

from repro.core import analysis
from repro.errors import ConfigurationError
from repro.units import kbps


def test_probe_packet_count_matches_paper_example():
    # "if the probe rate is 1000 packets per second ... 5 seconds" -> 5000.
    assert analysis.probe_packet_count(1000 * 125 * 8, 5.0, 125) == 5000


def test_basic_scenario_probe_count():
    # EXP1 probes at 256 kbps with 125-byte packets for 5 s: 1280 packets.
    assert analysis.probe_packet_count(kbps(256), 5.0, 125) == 1280


def test_rule_of_thumb_matches_paper_value():
    # Paper Section 4.1: "this results in a rule-of-thumb drop rate of
    # 0.13%" for the basic scenario (slow-start probe, 496 packets).
    floor = analysis.rule_of_thumb_floor(kbps(256), 5.0, 125)
    assert floor == pytest.approx(0.0013, abs=2e-4)


def test_slow_start_packet_count():
    # 1280 * (1/16 + 1/8 + 1/4 + 1/2 + 1)/5 = 496 packets.
    assert analysis.slow_start_packet_count(kbps(256), 5.0, 125) == 496


def test_rule_of_thumb_is_the_50_percent_point():
    floor = analysis.rule_of_thumb_floor(kbps(256), 5.0, 125, slow_start=False)
    p = analysis.acceptance_probability(floor, kbps(256), 5.0, 125)
    assert p == pytest.approx(0.5, abs=1e-9)


def test_acceptance_probability_monotone_in_loss():
    args = (kbps(256), 5.0, 125)
    assert (analysis.acceptance_probability(0.001, *args)
            > analysis.acceptance_probability(0.01, *args))
    assert analysis.acceptance_probability(0.0, *args) == 1.0
    assert analysis.acceptance_probability(1.0, *args) == 0.0


def test_longer_probes_lower_the_floor():
    short = analysis.rule_of_thumb_floor(kbps(256), 5.0, 125)
    long = analysis.rule_of_thumb_floor(kbps(256), 25.0, 125)
    assert long == pytest.approx(short / 5, rel=0.01)


def test_floor_for_packets_validation():
    with pytest.raises(ConfigurationError):
        analysis.rule_of_thumb_floor_for_packets(0)
    with pytest.raises(ConfigurationError):
        analysis.slow_start_packet_count(kbps(256), 5.0, 125, intervals=0)


def test_required_probe_packets_scales_inversely_with_epsilon():
    assert analysis.required_probe_packets(0.01) == 1000
    assert analysis.required_probe_packets(0.001) == 10000


def test_required_probe_duration():
    # Resolving 1% at 256 kbps / 125 B: 1000 packets ~ 3.9 s — which is
    # why the paper's 5-second probe pairs with eps >= 0.01 in-band.
    duration = analysis.required_probe_duration(0.01, kbps(256), 125)
    assert duration == pytest.approx(3.90625)


def test_erlang_b_known_values():
    # Classic table values.
    assert analysis.erlang_b(1.0, 1) == pytest.approx(0.5)
    assert analysis.erlang_b(10.0, 10) == pytest.approx(0.2146, abs=1e-3)
    assert analysis.erlang_b(0.0, 5) == 0.0
    assert analysis.erlang_b(5.0, 0) == 1.0


def test_basic_scenario_blocking_floor():
    # 85.7 erlangs offered to 78 servers: ~13% ideal blocking — below the
    # paper's measured ~20% (probe overhead raises it), as EXPERIMENTS.md
    # discusses.
    offered = analysis.offered_flow_erlangs(3.5, 300.0)
    servers = int(analysis.link_capacity_flows(10e6, kbps(128)))
    assert offered == pytest.approx(85.7, abs=0.1)
    assert servers == 78
    assert 0.10 < analysis.erlang_b(offered, servers) < 0.16


def test_high_load_blocking_floor():
    # tau=1.0: 300 erlangs to 78 servers -> ~74% blocking (paper: ~75%).
    blocking = analysis.erlang_b(300.0, 78)
    assert blocking == pytest.approx(0.74, abs=0.02)


@pytest.mark.parametrize("fn,args", [
    (analysis.probe_packet_count, (0, 5.0, 125)),
    (analysis.acceptance_probability, (1.5, 1e5, 5.0, 125)),
    (analysis.required_probe_packets, (0.0,)),
    (analysis.required_probe_duration, (1.0, 1e5, 125)),
    (analysis.erlang_b, (-1.0, 5)),
    (analysis.offered_flow_erlangs, (0.0, 300.0)),
    (analysis.link_capacity_flows, (0.0, 1.0)),
])
def test_validation(fn, args):
    with pytest.raises(ConfigurationError):
        fn(*args)


def _enumerated_parking_lot(long_erlangs, cross_erlangs, servers):
    """Parking-lot blocking by summing the product-form law over every
    state ``(n, n_1, ..., n_L)`` with ``n + n_i <= k`` on each link."""
    def weight(a, n):
        return a ** n / math.factorial(n)

    total = long_blocked = 0.0
    cross_blocked = [0.0] * len(cross_erlangs)
    for n in range(servers + 1):
        for counts in itertools.product(range(servers - n + 1),
                                        repeat=len(cross_erlangs)):
            w = weight(long_erlangs, n)
            for a, m in zip(cross_erlangs, counts):
                w *= weight(a, m)
            total += w
            if any(n + m == servers for m in counts):
                long_blocked += w
            for i, m in enumerate(counts):
                if n + m == servers:
                    cross_blocked[i] += w
    return long_blocked / total, tuple(b / total for b in cross_blocked)


@pytest.mark.parametrize("links", [1, 2, 3])
@pytest.mark.parametrize("servers", range(7))
def test_parking_lot_blocking_matches_state_enumeration(links, servers):
    for long_erlangs, cross in [
        (0.7, (1.3, 1.3, 1.3)),
        (4.0, (0.0, 2.5, 9.0)),
        (0.0, (5.0, 0.2, 5.0)),
        (12.0, (0.3, 7.0, 1.0)),
    ]:
        cross = cross[:links]
        exact_long, exact_cross = analysis.parking_lot_blocking(
            long_erlangs, cross, servers
        )
        long_blocked, cross_blocked = _enumerated_parking_lot(
            long_erlangs, cross, servers
        )
        assert exact_long == pytest.approx(long_blocked, abs=1e-12)
        assert exact_cross == pytest.approx(cross_blocked, abs=1e-12)


@pytest.mark.parametrize("long_erlangs, cross_erlangs, servers", [
    (3.0, 2.0, 4), (40.0, 45.7, 78), (0.0, 300.0, 78), (25.0, 0.0, 10),
])
def test_parking_lot_of_one_link_is_erlang_b(long_erlangs, cross_erlangs, servers):
    """One link, two routes sharing it: the pooled Erlang-B blocking."""
    pooled = analysis.erlang_b(long_erlangs + cross_erlangs, servers)
    exact_long, (exact_cross,) = analysis.parking_lot_blocking(
        long_erlangs, [cross_erlangs], servers
    )
    assert exact_long == pytest.approx(pooled, rel=1e-12)
    assert exact_cross == pytest.approx(pooled, rel=1e-12)


@pytest.mark.parametrize("args", [
    (1.0, [], 3), (-1.0, [1.0], 3), (1.0, [1.0, -0.5], 3), (1.0, [1.0], -1),
])
def test_parking_lot_blocking_validation(args):
    with pytest.raises(ConfigurationError):
        analysis.parking_lot_blocking(*args)


@pytest.mark.parametrize("long_erlangs, cross_erlangs, servers", [
    (3.0, 2.0, 4), (40.0, 45.7, 78), (0.0, 300.0, 78), (25.0, 0.0, 10),
])
def test_reduced_load_of_one_link_is_erlang_b(long_erlangs, cross_erlangs, servers):
    pooled = analysis.erlang_b(long_erlangs + cross_erlangs, servers)
    fixed_long, (fixed_cross,) = analysis.reduced_load_blocking(
        long_erlangs, [cross_erlangs], servers
    )
    assert fixed_long == pytest.approx(pooled, abs=1e-12)
    assert fixed_cross == pytest.approx(pooled, abs=1e-12)


def test_reduced_load_error_falls_as_the_parking_lot_scales(monkeypatch):
    """Loads and capacity scaled together by s: the fixed point's relative
    error against the exact sum falls at every step (1.9 % at s = 1,
    under 0.5 % at s = 32), and every solve takes under 30 substitutions."""
    calls = []
    erlang_b = analysis.erlang_b

    def counted(a, k):
        calls.append(a)
        return erlang_b(a, k)

    errors = []
    for s in range(1, 33):
        long_erlangs, cross, servers = 3.0 * s, [8.0 * s] * 3, 10 * s
        exact_long, _ = analysis.parking_lot_blocking(long_erlangs, cross, servers)
        calls.clear()
        monkeypatch.setattr(analysis, "erlang_b", counted)
        fixed_long, _ = analysis.reduced_load_blocking(long_erlangs, cross, servers)
        monkeypatch.setattr(analysis, "erlang_b", erlang_b)
        assert len(calls) < 30 * len(cross)
        errors.append(abs(fixed_long - exact_long) / exact_long)
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))
    assert errors[0] > 0.015 and errors[-1] < 0.005


@pytest.mark.parametrize("args", [
    (1.0, [], 3), (-1.0, [1.0], 3), (1.0, [1.0, -0.5], 3), (1.0, [1.0], -1),
])
def test_reduced_load_blocking_validation(args):
    with pytest.raises(ConfigurationError):
        analysis.reduced_load_blocking(*args)
