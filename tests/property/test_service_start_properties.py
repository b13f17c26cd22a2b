"""Service-start semantics of a port under faults, against a hand-computed
departure list.

A capacity change or an outage at time t must not move the departure of
the packet already in service: a packet's serialization time is fixed
when its service starts (SNIPPETS.md snippet 2's ``set_link_rate_bps``
contract).  The port runs at 8 b/s, one byte per second at full rate, and
every capacity factor is a power of two, so arrivals, service times and
departures are whole seconds held exactly in floats.  Fault times are
drawn off that grid, so the reference needs no rule for ties.
"""

import math
from typing import Dict, List, Sequence, Tuple

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.net.link import OutputPort
from repro.net.packet import FlowAccounting
from repro.net.queues import DropTailFifo
from repro.net.sink import Sink
from repro.sim.engine import Simulator

from tests.conftest import make_packet

RATE_BPS = 8.0
FACTORS = (1.0, 0.5, 0.25)

# (gap before arrival, size) per packet, in whole seconds and bytes.
trains = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6),
              st.integers(min_value=1, max_value=5)),
    min_size=1, max_size=12,
)
# Whole second -> factor; each change lands half a second after its key.
changes = st.dictionaries(st.integers(min_value=0, max_value=120),
                          st.sampled_from(FACTORS), max_size=6)


def _unpack(train: Sequence[Tuple[int, int]]) -> Tuple[List[float], List[int]]:
    arrivals, now = [], 0.0
    for gap, _ in train:
        now += gap
        arrivals.append(now)
    return arrivals, [size for _, size in train]


def reference_departures(
    arrivals: Sequence[float],
    sizes: Sequence[int],
    factor_changes: Dict[float, float],
) -> List[float]:
    """FIFO departures; each service uses the factor in force at its start."""
    departures, free = [], 0.0
    for arrival, size in zip(arrivals, sizes):
        start = max(arrival, free)
        factor = 1.0
        for t in sorted(factor_changes):
            if t < start:
                factor = factor_changes[t]
        free = start + size / factor
        departures.append(free)
    return departures


def simulated_departures(
    arrivals: Sequence[float],
    sizes: Sequence[int],
    faults: Sequence[Tuple[float, str, object]],
) -> List[float]:
    """Departures of the scripted train through a bare port.

    ``faults`` are ``(time, OutputPort method name, argument)`` triples.
    """
    sim = Simulator()
    port = OutputPort(sim, RATE_BPS, DropTailFifo(len(arrivals)), name="port")
    departed: Dict[int, float] = {}
    sink = Sink(sim, on_receive=lambda pkt: departed.setdefault(pkt.seq, sim.now))
    flow = FlowAccounting(1)

    def arrive(seq: int, size: int) -> None:
        port.send(make_packet(flow, [port], sink, size=size, seq=seq,
                              created=sim.now))

    for seq, (arrival, size) in enumerate(zip(arrivals, sizes)):
        sim.schedule_at(arrival, arrive, seq, size)
    for t, method, argument in faults:
        sim.schedule_at(t, getattr(port, method), argument)
    sim.run()
    return [departed[seq] for seq in range(len(arrivals))]


@settings(max_examples=200, deadline=None)
@given(train=trains, changes=changes)
def test_capacity_factor_applies_from_the_next_service_start(train, changes):
    arrivals, sizes = _unpack(train)
    factor_changes = {second + 0.5: f for second, f in changes.items()}
    faults = [(t, "set_capacity_factor", f) for t, f in factor_changes.items()]
    assert simulated_departures(arrivals, sizes, faults) == \
        reference_departures(arrivals, sizes, factor_changes)


@settings(max_examples=200, deadline=None)
@given(train=trains, data=st.data())
def test_outage_inside_one_service_changes_nothing(train, data):
    arrivals, sizes = _unpack(train)
    departures = reference_departures(arrivals, sizes, {})
    starts = [d - size for d, size in zip(departures, sizes)]
    next_arrivals = arrivals[1:] + [math.inf]
    # Services with nothing queued behind them and no arrival before they
    # end: going down there flushes nothing and blackholes nothing.
    alone = [k for k in range(len(arrivals)) if next_arrivals[k] > starts[k]]
    k = data.draw(st.sampled_from(alone), label="service")
    end = min(departures[k], next_arrivals[k])
    unit = st.floats(min_value=0.0, max_value=1.0,
                     exclude_min=True, exclude_max=True)
    down = starts[k] + data.draw(unit, label="down") * (end - starts[k])
    up = down + data.draw(unit, label="up") * (end - down)
    assume(starts[k] < down < up < end)
    faults = [(down, "set_enabled", False), (up, "set_enabled", True)]
    assert simulated_departures(arrivals, sizes, faults) == departures
