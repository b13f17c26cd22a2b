"""Constant-delay lanes: same dispatch order as the heap, found differently.

A lane event takes its ``seq`` exactly where ``sim.call`` would, and the
dispatch loop merges lanes, heap and chain slot on ``(time, seq)`` — so
everything here is phrased as "indistinguishable from ``sim.call``", plus
the bookkeeping (``pending`` / ``scheduled`` / parking at ``until``) that
has to count events wherever they wait.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.net.link import OutputPort
from repro.net.packet import FlowAccounting
from repro.net.queues import DropTailFifo
from repro.net.sink import Sink
from repro.sim.engine import Simulator
from repro.traffic.cbr import ConstantRateSource
from repro.traffic.onoff import ExponentialOnOffSource


def _via_heap(sim, delay, fn, arg):
    sim.call(delay, fn, arg)


def _via_chain(sim, delay, fn, arg):
    sim.call_chained(delay, fn, arg)


def _via_other_lane(sim, delay, fn, arg):
    sim.lane(delay).call(fn, arg)


# -- ordering ------------------------------------------------------------------


@pytest.mark.parametrize("other", [_via_heap, _via_chain, _via_other_lane])
@pytest.mark.parametrize("lane_first", [True, False])
def test_same_time_tie_resolves_by_seq(sim, other, lane_first):
    fired = []
    lane = sim.lane(1.0)
    if lane_first:
        lane.call(fired.append, "first")
        other(sim, 1.0, fired.append, "second")
    else:
        other(sim, 1.0, fired.append, "first")
        lane.call(fired.append, "second")
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 1.0


def test_same_time_tie_against_the_now_lane_resolves_by_seq(sim):
    """lane(0) — where same-time events go — is a lane like any other."""
    fired = []

    def at_one():
        sim.call(0.0, fired.append, "now-lane, younger")

    sim.lane(1.0).call(fired.append, "lane, older")
    sim.call(1.0, at_one)
    sim.run()
    assert fired == ["lane, older", "now-lane, younger"]

    # The mirror image needs a lane event *scheduled* at the tie instant:
    # a delay small enough to be absorbed (1 + 1e-300 == 1.0).
    del fired[:]

    def at_two():
        sim.call(0.0, fired.append, "now-lane, older")
        sim.lane(1e-300).call(fired.append, "lane, younger")
        sim.schedule_at(sim.now, fired.append, "now-lane, youngest")

    sim.call(1.0, at_two)
    sim.run()
    assert fired == ["now-lane, older", "lane, younger", "now-lane, youngest"]


def test_lane_is_fifo_and_interleaves_with_the_heap(sim):
    fired = []
    lane = sim.lane(0.5)

    def emit(n):
        fired.append((sim.now, n))
        if n < 4:
            lane.call(emit, n + 1)

    lane.call(emit, 0)
    for t in (0.75, 1.5, 1.5):
        sim.call(t, fired.append, (t, "heap"))
    sim.run()
    assert fired == [
        (0.5, 0), (0.75, "heap"), (1.0, 1), (1.5, "heap"), (1.5, "heap"),
        (1.5, 2), (2.0, 3), (2.5, 4),
    ]


def test_lane_call_matches_sim_call_event_for_event():
    def load(schedule):
        sim = Simulator()
        fired = []

        def tick(state):
            source, remaining = state
            fired.append((sim.now, source))
            if remaining:
                schedule(sim, 0.3 if source % 2 else 0.7, tick, (source, remaining - 1))

        for source in range(6):
            sim.call(0.1 * source, tick, (source, 8))
        sim.run()
        return fired, sim.scheduled, sim.events_processed

    assert load(_via_other_lane) == load(_via_heap)


# -- horizons --------------------------------------------------------------------


def test_run_until_leaves_a_lane_front_parked(sim):
    fired = []
    lane = sim.lane(2.0)
    lane.call(fired.append, "a")
    sim.call(1.0, lane.call, fired.append, "b")   # due at 3.0
    sim.run(until=1.5)
    assert fired == [] and sim.now == 1.5
    assert sim.pending == 2
    sim.run(until=2.0)                            # due exactly at the horizon
    assert fired == ["a"] and sim.pending == 1
    sim.run()
    assert fired == ["a", "b"] and sim.now == 3.0


def test_step_dispatches_lane_events(sim):
    fired = []
    sim.lane(1.0).call(fired.append, "lane")
    sim.call(0.5, fired.append, "heap")
    assert sim.step() and fired == ["heap"]
    assert sim.step() and fired == ["heap", "lane"]
    assert not sim.step()


def test_cancelled_same_time_event_in_the_now_lane_is_skipped(sim):
    fired = []

    def at_one():
        doomed = sim.schedule(0.0, fired.append, "doomed")
        sim.schedule(0.0, fired.append, "kept")
        doomed.cancel()
        assert not doomed.alive

    sim.call(1.0, at_one)
    sim.run()
    assert fired == ["kept"]
    assert sim.cancellations == 1 and sim.pending == 0


# -- bookkeeping -------------------------------------------------------------------


def test_counters_count_lane_events(sim):
    lane = sim.lane(1.0)
    assert sim.pending == 0 and sim.scheduled == 0
    lane.call(lambda _: None, None)
    lane.call(lambda _: None, None)
    sim.lane(0.0).call(lambda _: None, None)
    assert sim.pending == 3
    assert sim.scheduled == 3
    assert sim.garbage_ratio == 0.0
    sim.run()
    assert sim.pending == 0
    assert sim.events_processed == 3


def test_garbage_ratio_counts_lane_records_in_the_calendar(sim):
    handle = sim.schedule(5.0, lambda: None)
    for _ in range(3):
        sim.lane(1.0).call(lambda _: None, None)
    handle.cancel()
    assert sim.garbage_ratio == pytest.approx(1 / 4)


# -- validation ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_bad_delays_are_rejected_at_lane_creation(sim, bad):
    with pytest.raises(SimulationError):
        sim.lane(bad)
    assert sim.pending == 0


def test_same_delay_shares_one_lane(sim):
    assert sim.lane(0.02) is sim.lane(0.02)
    assert sim.lane(0) is sim.lane(0.0)
    assert sim.lane(0.02) is not sim.lane(0.03)
    assert sim.lane(0.02).delay == 0.02


def test_components_with_the_same_delay_share_a_lane(sim, streams):
    fifo = DropTailFifo(10)
    a = OutputPort(sim, 1e6, fifo, prop_delay=0.02, name="a")
    b = OutputPort(sim, 2e6, DropTailFifo(10), prop_delay=0.02, name="b")
    c = OutputPort(sim, 1e6, DropTailFifo(10), prop_delay=0.0, name="c")
    assert a._wire is b._wire is sim.lane(0.02)
    assert c._wire is None                      # a zero-delay hop has no wire
    sink = Sink(sim)
    cbr = ConstantRateSource(sim, [a], sink, FlowAccounting(1), 1e5, 125)
    onoff = ExponentialOnOffSource(
        sim, [a], sink, FlowAccounting(2), 1e5, 0.5, 0.5, 125, streams.get("s"),
    )
    assert cbr._tick_lane is onoff._tick_lane is sim.lane(0.01)
    cbr.set_rate(2e5)
    assert cbr._tick_lane is sim.lane(0.005)


def test_strict_mode_validates_lane_dispatches():
    sim = Simulator(strict=True)
    lane = sim.lane(1.0)
    lane.call(lambda _: None, None)
    lane._queue[0][0] = math.nan                # simulate record corruption
    with pytest.raises(SimulationError, match="non-finite"):
        sim.run()

    sim = Simulator(strict=True)
    sim.call(2.0, lambda: None)
    lane = sim.lane(3.0)
    lane.call(lambda _: None, None)
    sim.run(until=2.5)
    lane._queue[0][0] = 1.0                     # now in the past
    with pytest.raises(SimulationError, match="backwards"):
        sim.step()
