"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_in_scheduling_order(sim):
    fired = []
    for name in ("first", "second", "third"):
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time(sim):
    times = []
    sim.schedule(2.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_future_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_until_advances_clock_with_empty_calendar(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_run_until_boundary_event_fires(sim):
    fired = []
    sim.schedule(2.0, fired.append, "exact")
    sim.run(until=2.0)
    assert fired == ["exact"]


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_cancelled_event_does_not_fire(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.alive


def test_cancel_twice_is_harmless(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_handle_reports_time_and_liveness(sim):
    handle = sim.schedule(4.0, lambda: None)
    assert handle.alive
    assert handle.time == 4.0
    sim.run()
    assert not handle.alive


@pytest.mark.parametrize("delay", [4.0, 0.0], ids=["heap record", "lane(0) record"])
def test_handle_of_a_fired_event_is_inert(sim, delay):
    sim.run(until=2.0)
    handle = sim.schedule_at(sim.now + delay, lambda: None)
    sim.schedule(9.0, lambda: None)  # stays pending, so garbage_ratio could move
    sim.run(until=7.0)
    assert sim.events_processed == 1
    assert not handle.alive
    assert handle.time == 2.0 + delay
    handle.cancel()
    assert sim.cancellations == 0
    assert sim.garbage_ratio == 0.0
    assert sim.pending == 1


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)  # noqa: SIM001
    with pytest.raises(SimulationError):
        sim.call(-0.5, lambda: None)  # noqa: SIM001


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_call_fast_path_fires_in_order(sim):
    fired = []
    sim.call(2.0, fired.append, "b")
    sim.call(1.0, fired.append, "a")
    sim.run()
    assert fired == ["a", "b"]


def test_stop_halts_run(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.now == 2.0
    # The remaining event is still pending and can be run later.
    sim.run()
    assert fired == [1, 3]


def test_step_runs_single_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert fired == ["a", "b"]
    assert not sim.step()


def test_events_processed_counts(sim):
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_excludes_cancelled(sim):
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.pending == 1


def test_args_passed_through(sim):
    got = []
    sim.schedule(1.0, lambda a, b, c: got.append((a, b, c)), 1, "x", None)
    sim.run()
    assert got == [(1, "x", None)]
