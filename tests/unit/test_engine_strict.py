"""Tests for event-time validation and ``Simulator(strict=True)``.

The static linter (repro.lint) proves what it can at the AST level; these
tests pin down the runtime half of the contract: non-finite event times are
rejected at the scheduling boundary, strict mode catches record corruption
and bounds heap garbage, and cancellation accounting stays consistent.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import (
    _COMPACT_MIN,
    Simulator,
    set_strict_default,
    strict_default,
)


@pytest.fixture
def strict_sim() -> Simulator:
    return Simulator(strict=True)


# -- the process-wide strict default -----------------------------------------


def test_strict_default_is_process_wide():
    # The suite's conftest arms strict mode, so a bare Simulator() has it.
    assert strict_default()
    assert Simulator().strict
    previous = set_strict_default(False)
    try:
        assert previous is True
        assert not strict_default()
        assert not Simulator().strict
        # An explicit argument always beats the default, both ways.
        assert Simulator(strict=True).strict
    finally:
        set_strict_default(previous)
    assert not Simulator(strict=False).strict


# -- non-finite times are rejected unconditionally --------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_schedule_rejects_non_finite_delay(sim, bad):
    with pytest.raises(SimulationError):
        sim.schedule(bad, lambda: None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_schedule_at_rejects_non_finite_time(sim, bad):
    with pytest.raises(SimulationError):
        sim.schedule_at(bad, lambda: None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_call_rejects_non_finite_delay(sim, bad):
    with pytest.raises(SimulationError):
        sim.call(bad, lambda: None)


def test_call_validates_delay_before_computing_when(sim):
    """A negative delay errors on the *delay*, not on a bogus derived time."""
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="-1.0"):
        sim.call(-1.0, lambda: None)  # noqa: SIM001


def test_nan_event_cannot_corrupt_heap_ordering(sim):
    """The original failure mode: NaN compares False everywhere, so before
    the guard a NaN deadline would sit in the heap and break sift order."""
    fired = []
    sim.schedule(1.0, fired.append, "a")
    with pytest.raises(SimulationError):
        sim.schedule(math.nan, fired.append, "poison")  # noqa: SIM001
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b"]


def test_rejected_event_leaves_no_residue(sim):
    with pytest.raises(SimulationError):
        sim.schedule_at(math.inf, lambda: None)  # noqa: SIM001
    assert sim.pending == 0


# -- strict mode: dispatch validation ---------------------------------------


def test_strict_mode_runs_normally(strict_sim):
    fired = []
    strict_sim.schedule(1.0, fired.append, "x")
    strict_sim.schedule(2.0, fired.append, "y")
    strict_sim.run()
    assert fired == ["x", "y"]
    assert strict_sim.events_processed == 2


def test_strict_and_default_mode_agree():
    def load(sim: Simulator) -> list:
        fired = []
        for i in range(50):
            sim.schedule(0.1 * i, fired.append, i)
        sim.run()
        return fired

    assert load(Simulator(strict=False)) == load(Simulator(strict=True))


def test_strict_detects_record_mutated_to_nan(strict_sim):
    handle = strict_sim.schedule(1.0, lambda: None)
    handle._record[0] = math.nan  # simulate heap corruption
    with pytest.raises(SimulationError, match="non-finite"):
        strict_sim.run()


def test_strict_detects_backwards_clock(strict_sim):
    strict_sim.schedule(5.0, lambda: None)
    strict_sim.run()
    assert strict_sim.now == 5.0
    handle = strict_sim.schedule(1.0, lambda: None)
    handle._record[0] = 2.0  # mutated to before `now` after scheduling
    with pytest.raises(SimulationError, match="backwards"):
        strict_sim.run()


def test_default_mode_skips_dispatch_validation():
    """Non-strict mode keeps the hot path lean: corruption goes undetected.

    Explicit ``strict=False``: the suite's conftest flips the process-wide
    default to strict, and this test is about the unchecked path.
    """
    sim = Simulator(strict=False)
    handle = sim.schedule(1.0, lambda: None)
    handle._record[0] = math.nan
    sim.run()  # silently wrong, by documented design: strict exists for this


# -- heap-garbage compaction (default in every engine) -----------------------


def test_strict_compacts_cancelled_garbage(strict_sim):
    handles = [strict_sim.schedule(10.0 + i, lambda: None) for i in range(2 * _COMPACT_MIN)]
    for handle in handles[: 2 * _COMPACT_MIN - 8]:
        handle.cancel()
    assert strict_sim.garbage_ratio > 0.9
    # Trigger one dispatch so the compaction check runs.
    strict_sim.schedule(0.5, lambda: None)
    strict_sim.step()
    assert strict_sim.compactions >= 1
    assert strict_sim.garbage_ratio == 0.0
    strict_sim.run()
    assert strict_sim.pending == 0


def test_default_mode_compacts_too():
    """Compaction is part of the default engine, not a strict-only check.

    Long admission-control sweeps cancel enough timers for garbage to
    dominate the calendar, and with no record recycling the rebuild is the
    only thing that bounds it, so ``step`` and ``run`` — one loop — shed
    it in production mode too (``python -m bench`` times that churn as
    ``sim.ns_per_cancel``).
    """
    sim = Simulator(strict=False)
    handles = [sim.schedule(10.0 + i, lambda: None) for i in range(2 * _COMPACT_MIN)]
    for handle in handles:
        handle.cancel()
    sim.schedule(0.5, lambda: None)
    sim.step()
    assert sim.compactions == 1
    assert sim.garbage_ratio == 0.0
    sim.run()
    assert sim.pending == 0


def test_compaction_below_floor_never_triggers():
    """Tiny calendars are never rebuilt, whatever their garbage fraction."""
    sim = Simulator(strict=False)
    handles = [sim.schedule(10.0 + i, lambda: None) for i in range(_COMPACT_MIN - 2)]
    for handle in handles:
        handle.cancel()
    sim.schedule(0.5, lambda: None)
    sim.run()
    assert sim.compactions == 0


def test_compaction_preserves_event_order(strict_sim):
    fired = []
    keep = []
    for i in range(2 * _COMPACT_MIN):
        handle = strict_sim.schedule(1.0 + i * 0.001, fired.append, i)
        if i % 200 == 0:
            keep.append(i)
        else:
            handle.cancel()
    strict_sim.run()
    assert fired == keep
    assert strict_sim.compactions >= 1


# -- pending / cancellation accounting --------------------------------------


def test_pending_excludes_cancelled(sim):
    handles = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    assert sim.pending == 10
    for handle in handles[:4]:
        handle.cancel()
    assert sim.pending == 6


def test_double_cancel_counts_once(sim):
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim._cancelled == 1
    assert sim.pending == 1


def test_garbage_ratio_empty_heap_is_zero(sim):
    assert sim.garbage_ratio == 0.0


def test_garbage_ratio_tracks_cancellations(sim):
    handles = [sim.schedule(1.0 + i, lambda: None) for i in range(4)]
    handles[0].cancel()
    assert sim.garbage_ratio == pytest.approx(0.25)


def test_cancelled_accounting_drains_with_pops(sim):
    handles = [sim.schedule(1.0 + i, lambda: None) for i in range(6)]
    for handle in handles:
        handle.cancel()
    sim.run()
    assert sim._cancelled == 0
    assert sim.events_processed == 0


def test_step_skips_cancelled_and_fires_next(sim):
    fired = []
    first = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "live")
    first.cancel()
    assert sim.step() is True
    assert fired == ["live"]
    assert sim.step() is False


def test_run_until_with_cancelled_head(sim):
    fired = []
    head = sim.schedule(1.0, fired.append, "head")
    sim.schedule(5.0, fired.append, "later")
    head.cancel()
    sim.run(until=2.0)
    assert fired == []
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == ["later"]
