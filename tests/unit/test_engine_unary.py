"""One-argument events: the unary fast paths and the general paths' adaptation.

An event record holds one callable and one argument and fires as
``fn(arg)``.  :meth:`Lane.call` and :meth:`Simulator.call_chained` take
exactly one argument; ``schedule`` / ``schedule_at`` / ``call`` keep
``(fn, *args)`` and adapt every other arity once, at scheduling.  These
tests pin the arity contract and that a profile — the one place a
callback's name is visible — keys an event by the callback that was
scheduled, never by the adapter.
"""

from __future__ import annotations

import itertools

import pytest

from repro.obs.profile import CallbackProfile
from repro.sim import engine
from repro.sim.engine import Simulator


class Port:
    def __init__(self):
        self.ticks = 0
        self.received = []

    def tick(self):
        self.ticks += 1

    def receive(self, pkt):
        self.received.append(pkt)


@pytest.mark.parametrize("args", [(), ("a", "b")])
def test_unary_fast_paths_reject_other_arities_before_scheduling(sim, args):
    fired = []
    lane = sim.lane(1.0)
    with pytest.raises(TypeError):
        lane.call(fired.append, *args)
    with pytest.raises(TypeError):
        sim.call_chained(1.0, fired.append, *args)
    assert sim.scheduled == 0 and sim.pending == 0
    sim.run()
    assert fired == [] and sim.events_processed == 0


def test_general_paths_adapt_once_at_scheduling(sim):
    """One argument is stored as is; a zero-argument bound method as its
    function and instance; anything else behind a trampoline."""
    port = Port()

    def closure():
        pass

    def three(a, b, c):
        pass

    def stored(handle):
        return handle._record[2], handle._record[3]

    assert stored(sim.schedule(1.0, port.receive, "pkt")) == (port.receive, "pkt")
    assert stored(sim.schedule(1.0, port.tick)) == (Port.tick, port)
    assert stored(sim.schedule_at(0.0, closure)) == (engine._call0, closure)
    assert stored(sim.schedule(1.0, three, 1, 2, 3)) == (
        engine._call_n, (three, (1, 2, 3)))


@pytest.mark.parametrize("strict", [False, True])
def test_profile_keys_name_the_scheduled_callback(strict):
    sim = Simulator(strict=strict)
    profile = CallbackProfile(itertools.count().__next__)
    sim.enable_profiling(profile)
    port = Port()

    def closure():
        pass

    def three(a, b, c):
        pass

    sim.schedule(1.0, port.tick)             # zero-argument bound method
    sim.call(0.0, port.tick)
    sim.schedule_at(2.0, closure)            # zero-argument closure
    sim.call(2.0, closure)
    sim.call(0.0, closure)
    sim.call(1.0, port.receive, "pkt")       # one argument
    sim.lane(0.5).call(port.receive, "lane")
    sim.call_chained(0.5, port.receive, "chain")
    sim.schedule(3.0, three, 1, 2, 3)        # three arguments
    sim.call(0.0, three, 4, 5, 6)
    sim.run()
    prefix = "test_profile_keys_name_the_scheduled_callback.<locals>"
    assert profile.calls == {
        "Port.tick": 2,
        f"{prefix}.closure": 3,
        "Port.receive": 3,
        f"{prefix}.three": 2,
    }
    assert sum(profile.calls.values()) == sim.events_processed
