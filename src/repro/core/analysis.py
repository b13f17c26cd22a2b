"""Closed-form analysis helpers from the paper.

Section 4.1 derives a rule of thumb for the lowest loss rate in-band
dropping can detect: with probe rate ``r``, packet size ``P`` and probe
time ``T``, a link with fixed drop probability ``l`` admits a flow at
``epsilon = 0`` with probability ``(1 - l)^(rT/P)`` — no drops may hit the
probe.  The 50%-admission point ``l* = 1 - 2^(-P/(rT))`` is therefore the
effective loss floor of the design.

Section 2.2.2's accuracy argument (probes must last many multiples of
``1/epsilon`` packet transmissions) and the classical Erlang-B blocking
formula (for sanity-checking scenario load levels) are also provided,
with the exact blocking of the parking-lot loss network built on it and
the Erlang fixed point that approximates it.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError, ModelError
from repro.units import BITS_PER_BYTE


def probe_packet_count(rate_bps: float, duration_s: float, packet_bytes: int) -> int:
    """Packets a constant-rate probe sends (``rT/P`` in the paper)."""
    if rate_bps <= 0 or duration_s <= 0 or packet_bytes <= 0:
        raise ConfigurationError("rate, duration and packet size must be positive")
    return int(rate_bps * duration_s / (packet_bytes * BITS_PER_BYTE))


def slow_start_packet_count(rate_bps: float, duration_s: float,
                            packet_bytes: int, intervals: int = 5) -> int:
    """Packets a slow-start probe sends.

    The rate doubles each interval from ``r / 2^(intervals-1)`` up to
    ``r``, so the total is ``(2 - 2^(1-intervals)) * rT / (intervals * P)``
    — 38.75% of a constant-rate probe for the paper's five intervals.
    """
    if intervals < 1:
        raise ConfigurationError(f"need at least one interval, got {intervals!r}")
    per_interval = duration_s / intervals
    total = 0
    for k in range(intervals):
        rate = rate_bps / 2 ** (intervals - 1 - k)
        total += int(rate * per_interval / (packet_bytes * BITS_PER_BYTE))
    return total


def acceptance_probability(loss_rate: float, rate_bps: float,
                           duration_s: float, packet_bytes: int) -> float:
    """P(admitted at epsilon=0) on a link with i.i.d. drop rate ``loss_rate``.

    The probe passes only if none of its ``rT/P`` packets is dropped.
    """
    if not 0.0 <= loss_rate <= 1.0:
        raise ConfigurationError(f"loss rate must be in [0, 1], got {loss_rate!r}")
    n = probe_packet_count(rate_bps, duration_s, packet_bytes)
    return (1.0 - loss_rate) ** n


def rule_of_thumb_floor_for_packets(n_packets: int) -> float:
    """The drop rate at which an n-packet epsilon=0 probe passes 50%."""
    if n_packets < 1:
        raise ConfigurationError("probe too short to send a single packet")
    return 1.0 - 2.0 ** (-1.0 / n_packets)


def rule_of_thumb_floor(rate_bps: float, duration_s: float,
                        packet_bytes: int, slow_start: bool = True) -> float:
    """The drop rate at which an epsilon=0 probe passes 50% of the time.

    ``l* = 1 - 2^(-1/n)`` where ``n`` is the probe's packet count — the
    paper's estimate of "how low a drop rate in-band dropping can achieve
    for a given probing interval".  The paper's quoted 0.13% for the basic
    scenario corresponds to the slow-start probe's 496 packets (the
    default here); a constant-rate probe's 1280 packets give ~0.054%.
    """
    if slow_start:
        n = slow_start_packet_count(rate_bps, duration_s, packet_bytes)
    else:
        n = probe_packet_count(rate_bps, duration_s, packet_bytes)
    return rule_of_thumb_floor_for_packets(n)


def required_probe_packets(epsilon: float, resolution_factor: float = 10.0) -> int:
    """Packets needed to resolve a loss fraction of ``epsilon``.

    Section 2.2.2: "the probe must last for many multiples of 1/epsilon
    (measured in packet transmissions)".  ``resolution_factor`` is the
    "many".
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon!r}")
    if resolution_factor <= 0:
        raise ConfigurationError("resolution factor must be positive")
    return math.ceil(resolution_factor / epsilon)


def required_probe_duration(epsilon: float, rate_bps: float, packet_bytes: int,
                            resolution_factor: float = 10.0) -> float:
    """Probe time needed to resolve ``epsilon`` at a given probing rate."""
    packets = required_probe_packets(epsilon, resolution_factor)
    return packets * packet_bytes * BITS_PER_BYTE / rate_bps


def erlang_b(offered_erlangs: float, servers: int) -> float:
    """Erlang-B blocking probability (recursive form, numerically stable).

    Used to sanity-check scenario load: the basic scenario offers ~85.7
    flow-erlangs to a 78-flow link, i.e. an ideal loss-network blocking of
    ~13%; the paper's measured ~20% reflects probing overhead and
    measurement noise on top of that floor.
    """
    if offered_erlangs < 0:
        raise ConfigurationError(
            f"offered load must be non-negative, got {offered_erlangs!r}"
        )
    if servers < 0:
        raise ConfigurationError(f"servers must be non-negative, got {servers!r}")
    return _erlang_b_table(offered_erlangs, servers)[-1]


def _erlang_b_table(offered_erlangs: float, servers: int) -> List[float]:
    """``erlang_b(a, m)`` for ``m = 0..servers``, by one pass of the recursion."""
    table = [1.0]
    for m in range(1, servers + 1):
        b = table[-1]
        table.append(offered_erlangs * b / (m + offered_erlangs * b))
    return table


def _truncated_poisson(offered_erlangs: float, servers: int) -> Tuple[List[float], List[float]]:
    """``(pmf, cdf)`` of Poisson(a) truncated to ``0..servers``.

    With ``E(a, m) = sum_{j<=m} a^j/j!``, ``cdf[m] = E(a, m) / E(a, k)`` and
    ``pmf[n] = (a^n/n!) / E(a, k)``.  Both come from Erlang-B values,
    ``B(a, m) = (a^m/m!) / E(a, m)``, so nothing overflows:
    ``cdf[m - 1] = cdf[m] * (1 - B(a, m))`` and ``pmf[n] = B(a, n) * cdf[n]``.
    """
    blocking = _erlang_b_table(offered_erlangs, servers)
    cdf = [1.0] * (servers + 1)
    for m in range(servers, 0, -1):
        cdf[m - 1] = cdf[m] * (1.0 - blocking[m])
    return [b * c for b, c in zip(blocking, cdf)], cdf


def _check_parking_lot(
    long_erlangs: float, cross_erlangs: Sequence[float], servers: int,
) -> None:
    """The input checks both parking-lot blocking functions share."""
    if not cross_erlangs:
        raise ConfigurationError("the parking lot needs at least one link")
    for load in (long_erlangs, *cross_erlangs):
        if load < 0:
            raise ConfigurationError(f"offered load must be non-negative, got {load!r}")
    if servers < 0:
        raise ConfigurationError(f"servers must be non-negative, got {servers!r}")


def parking_lot_blocking(
    long_erlangs: float, cross_erlangs: Sequence[float], servers: int,
) -> Tuple[float, Tuple[float, ...]]:
    """Exact blocking of the parking-lot loss network.

    One long route crosses every link; link ``i`` also carries one cross
    route offered ``cross_erlangs[i]``; every link fits ``servers`` flows.
    With fixed routes and Poisson arrivals the stationary law is product
    form (Kelly, "Loss networks", 1991), so with ``E(a, m) = sum_{j<=m}
    a^j/j!`` and ``a_l`` the long route's load the normaliser is the
    one-dimensional sum ``G = sum_{n<=k} a_l^n/n! * prod_i E(a_i, k - n)``
    over the long route's flow count ``n``.  The long route is blocked
    with probability ``1 - G'/G``, ``G'`` being the same sum with ``k - 1``
    for ``k``; cross route ``i`` is blocked when ``n + n_i = k``, so only
    its own factor takes ``k - 1 - n``.  On one link this is
    ``erlang_b(a_l + a_1, k)``.

    Returns ``(long-route blocking, per-cross-route blocking)``.
    """
    _check_parking_lot(long_erlangs, cross_erlangs, servers)
    # Terms are scaled by E(a_l, k) * prod_i E(a_i, k), which cancels in
    # every ratio below.
    long_pmf, _ = _truncated_poisson(long_erlangs, servers)
    cross_cdfs = [_truncated_poisson(a, servers)[1] for a in cross_erlangs]

    def room(n: int, k: int) -> List[float]:
        """``E(a_i, k - n)`` per link, scaled, for ``n <= k``."""
        return [cdf[k - n] for cdf in cross_cdfs]

    total = sum(long_pmf[n] * math.prod(room(n, servers)) for n in range(servers + 1))
    long_room = sum(
        long_pmf[n] * math.prod(room(n, servers - 1)) for n in range(servers)
    )
    cross = []
    for i in range(len(cross_cdfs)):
        mass = 0.0
        for n in range(servers):
            factors = room(n, servers)
            factors[i] = cross_cdfs[i][servers - 1 - n]
            mass += long_pmf[n] * math.prod(factors)
        cross.append(1.0 - mass / total)
    return 1.0 - long_room / total, tuple(cross)


#: Convergence threshold of :func:`reduced_load_blocking` (max change of
#: any link's blocking between two substitutions).
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 10_000


def reduced_load_blocking(
    long_erlangs: float, cross_erlangs: Sequence[float], servers: int,
) -> Tuple[float, Tuple[float, ...]]:
    """Erlang fixed-point (reduced-load) blocking of the parking lot.

    Same inputs and return shape as :func:`parking_lot_blocking`, which it
    approximates.  Links are taken to block independently, each seeing
    its cross load plus the long load thinned by every *other* link:
    ``B_i = erlang_b(a_i + a_l * prod_{j != i} (1 - B_j), k)``, solved by
    repeated substitution from ``B = 0`` until no ``B_i`` moves by more
    than 1e-12.  The long route is blocked with ``1 - prod_i (1 - B_i)``,
    cross route ``i`` with ``B_i``.  On one link this is
    ``erlang_b(a_l + a_1, k)``; the error against the exact sum vanishes
    as loads and ``k`` grow together (Kelly, "Loss networks", 1991).
    """
    _check_parking_lot(long_erlangs, cross_erlangs, servers)
    blocking = [0.0] * len(cross_erlangs)
    for _ in range(_FIXED_POINT_MAX_ITER):
        passing = [1.0 - b for b in blocking]
        updated = [
            erlang_b(
                a + long_erlangs * math.prod(passing[:i] + passing[i + 1:]),
                servers,
            )
            for i, a in enumerate(cross_erlangs)
        ]
        moved = max(abs(new - old) for new, old in zip(updated, blocking))
        blocking = updated
        if moved <= _FIXED_POINT_TOL:
            break
    else:
        raise ModelError(
            f"reduced-load fixed point did not converge in "
            f"{_FIXED_POINT_MAX_ITER} substitutions"
        )
    return 1.0 - math.prod(1.0 - b for b in blocking), tuple(blocking)


def offered_flow_erlangs(interarrival_s: float, lifetime_s: float) -> float:
    """Mean concurrent flows offered by a Poisson(1/tau) arrival process."""
    if interarrival_s <= 0 or lifetime_s <= 0:
        raise ConfigurationError("interarrival and lifetime must be positive")
    return lifetime_s / interarrival_s


def link_capacity_flows(link_rate_bps: float, flow_rate_bps: float) -> float:
    """How many flows of a given average rate fit a link."""
    if link_rate_bps <= 0 or flow_rate_bps <= 0:
        raise ConfigurationError("rates must be positive")
    return link_rate_bps / flow_rate_bps
