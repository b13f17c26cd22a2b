"""Constant-delay lanes: same dispatch order as the heap, found differently.

A lane event takes its ``seq`` exactly where ``sim.call`` would, and the
dispatch loop merges lanes, heap and chain slot on ``(time, seq)`` — so
everything here is phrased as "indistinguishable from ``sim.call``", plus
the bookkeeping (``pending`` / ``scheduled`` / parking at ``until``) that
has to count events wherever they wait.  A train (``Lane.every``) is in
turn indistinguishable from a callback that ends with ``Lane.call`` of
itself.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.errors import SimulationError
from repro.obs.profile import CallbackProfile
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


# -- trains ------------------------------------------------------------------


class _Ticker:
    """A fixed-interval callback that goes on for ``ticks`` firings."""

    def __init__(self, sim, log, label, ticks):
        self.sim, self.log, self.label, self.left = sim, log, label, ticks

    def tick(self, arg):
        self.log.append((self.sim.now, self.label, arg, self.sim.scheduled))
        self.left -= 1
        if self.left and self.label != "heap":
            # Same-time company for the next tick, scheduled inside this one.
            self.sim.call(0.5, self.log.append, (self.label, "tie"))
        return self.left > 0


def _start_train(lane, ticker, arg):
    lane.every(ticker.tick, arg)


def _start_self_rescheduling(lane, ticker, arg):
    def tick(arg):
        if ticker.tick(arg) is True:
            lane.call(tick, arg)

    lane.call(tick, arg)


@pytest.mark.parametrize("drive", ["run", "step"])
def test_train_matches_a_callback_that_reschedules_itself(drive):
    def load(start):
        sim = Simulator()
        log = []
        for n, delay in enumerate((0.5, 0.5, 0.25)):
            start(sim.lane(delay), _Ticker(sim, log, f"train{n}", 5), n)
        heap = _Ticker(sim, log, "heap", 1)
        for t in (0.5, 1.0, 1.0, 1.25):
            sim.call(t, heap.tick, t)
        if drive == "run":
            sim.run()
        else:
            while sim.step():
                pass
        return log, sim.scheduled, sim.events_processed, sim.now

    assert load(_start_train) == load(_start_self_rescheduling)


def test_train_rearms_its_own_record_with_the_next_seq(sim):
    lane = sim.lane(1.0)
    lane.every(lambda _: True, None)
    record = lane._queue[0]
    sim.call(0.5, sim.call, 0.0, lambda: None)      # takes seq 2 and 3
    for seq, when in ((4, 2.0), (5, 3.0)):
        while sim.now < when - 1.0:
            assert sim.step()
        assert lane._queue[0] is record
        assert record[:2] == [when, seq] and record[4]
        assert sim.scheduled == seq


@pytest.mark.parametrize("result", [False, None, 1])
def test_anything_but_true_ends_a_train(sim, result):
    fired = []

    def tick(arg):
        fired.append(sim.now)
        return result

    sim.lane(1.0).every(tick, None)
    sim.run(until=5.0)
    assert fired == [1.0]
    assert sim.pending == 0 and sim.scheduled == 1


@pytest.mark.parametrize("schedule", [_via_heap, _via_chain, _via_other_lane])
def test_true_from_a_one_shot_event_is_ignored(sim, schedule):
    fired = []

    def tick(arg):
        fired.append(sim.now)
        return True

    schedule(sim, 1.0, tick, None)
    sim.run()
    assert fired == [1.0]
    assert sim.pending == 0 and sim.scheduled == 1


def test_counters_count_train_events(sim):
    ticker = _Ticker(sim, [], "train", 3)
    sim.lane(1.0).every(ticker.tick, None)
    assert sim.pending == 1 and sim.scheduled == 1
    sim.run(until=1.25)
    assert sim.pending == 2 and sim.scheduled == 3   # next tick and a tie
    sim.run()
    assert sim.pending == 0
    assert sim.events_processed == 5 and sim.scheduled == 5


@pytest.mark.parametrize("strict", [False, True])
def test_profile_keys_a_train_by_its_callback(strict, streams):
    sim = Simulator(strict=strict)
    profile = CallbackProfile(itertools.count().__next__)
    sim.enable_profiling(profile)
    sim.lane(0.5).every(_Ticker(sim, [], "train", 3).tick, None)
    sim.lane(0.5).call(_Ticker(sim, [], "one-shot", 1).tick, None)
    sim.run()
    assert profile.calls == {"_Ticker.tick": 4, "list.append": 2}

    sim = Simulator(strict=strict)
    profile = CallbackProfile(itertools.count().__next__)
    sim.enable_profiling(profile)
    port = OutputPort(sim, 1e6, DropTailFifo(10), prop_delay=0.002, name="a")
    onoff = ExponentialOnOffSource(          # always on: one endless train
        sim, [port], Sink(sim), FlowAccounting(1), 1e5, 0.5, 0.0, 125,
        streams.get("s"),
    )
    onoff.start()
    sim.run(until=0.995)
    assert profile.calls == {
        "Source._emit": 99, "OutputPort._tx_done": 100, "Sink.receive": 100,
    }


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
