"""Property-based tests for the event engine."""

import bisect
import functools
import itertools
import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200,
)


@given(delays)
def test_events_always_fire_in_nondecreasing_time_order(ds):
    sim = Simulator()
    fired = []
    for d in ds:
        sim.schedule(d, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(ds)


@given(delays)
def test_equal_times_fire_in_scheduling_order(ds):
    sim = Simulator()
    fired = []
    for i, d in enumerate(ds):
        sim.schedule(d, fired.append, (d, i))
    sim.run()
    assert fired == sorted(fired)  # (time, insertion index) lexicographic


@given(delays, st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_run_until_never_executes_future_events(ds, horizon):
    sim = Simulator()
    fired = []
    for d in ds:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run(until=horizon)
    assert all(d <= horizon for d in fired)
    assert sim.now >= min(horizon, max(ds) if ds else horizon) or not fired


@given(delays, st.sets(st.integers(min_value=0, max_value=199)))
def test_cancelled_events_never_fire(ds, cancel_idx):
    sim = Simulator()
    fired = []
    handles = [sim.schedule(d, fired.append, i) for i, d in enumerate(ds)]
    for i in cancel_idx:
        if i < len(handles):
            handles[i].cancel()
    sim.run()
    cancelled = {i for i in cancel_idx if i < len(ds)}
    assert set(fired) == set(range(len(ds))) - cancelled


@given(st.lists(st.floats(min_value=0.001, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=50)
def test_clock_is_monotone_under_chained_scheduling(ds):
    sim = Simulator()
    observed = []

    def chain(remaining):
        observed.append(sim.now)
        if remaining:
            sim.schedule(remaining[0], chain, remaining[1:])

    sim.schedule(0.0, chain, tuple(ds))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(ds) + 1


# -- differential: every dispatch path against a sorted list ------------------
#
# A *program* is a forest of operations.  An event operation ``(kind, delay,
# form, children)`` schedules one event through the named scheduling method;
# when the event fires it logs ``(time, seq, label)`` and issues its children
# (so scheduling nests inside callbacks).  The unary kinds (``lane``,
# ``call_chained``) always fire ``fire(packed)``; the general ones draw their
# callback's ``form``, an (arity, style) pair: 0, 1 or 3 arguments to a bound
# method, a closure or a C-level callable, so the engine's zero-argument
# unbinding and both trampolines meet the same reference calendar.  A
# ``("train", delay, ticks, children)`` operation starts a ``Lane.every``
# train that fires ``ticks`` times, issuing its children each time, and
# then returns False; the reference calendar spells it as a tick that
# reschedules itself at its end.  ``("cancel", k)`` cancels the k-th
# handle obtained so far and ``("stop",)`` halts the run from inside the
# callback; a drive resumes a stopped run, so stopping never changes what
# fires.  The engine — through ``run``, a ``step`` loop, split ``run(until)``
# horizons and both mixed, profiled or not, strict or not — must fire exactly
# what the reference calendar below fires.

HANDLE_KINDS = ("schedule", "schedule_at")
UNARY_KINDS = ("call_chained", "lane")
KINDS = HANDLE_KINDS + ("call",) + UNARY_KINDS
FORMS = tuple(itertools.product((0, 1, 3), ("method", "closure", "builtin")))

# Mostly a handful of values, so that ties, shared lanes and same-time
# (delay 0) events are the rule rather than the exception.
tie_prone_delays = st.one_of(
    st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
cancels = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40))
stops = st.just(("stop",))
# A train needs a positive delay: on lane(0) it would never leave the instant.
train_delays = tie_prone_delays.filter(lambda delay: delay > 0)
ticks = st.integers(min_value=1, max_value=3)


def _operation(children):
    return st.one_of(
        st.tuples(st.sampled_from(KINDS), tie_prone_delays, st.sampled_from(FORMS),
                  children),
        st.tuples(st.just("train"), train_delays, ticks, children),
    )


programs = st.lists(
    st.recursive(
        _operation(st.just(())),
        lambda children: _operation(
            st.lists(st.one_of(children, cancels, stops), max_size=4).map(tuple)
        ),
        max_leaves=25,
    ),
    min_size=1, max_size=10,
)
horizons = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),  # often exactly an event time
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    ),
    max_size=4,
).map(sorted)


class ReferenceCalendar:
    """What the engine must be indistinguishable from: one sorted list."""

    def __init__(self):
        self.now = 0.0
        self.scheduled = 0
        self.cancellations = 0  # effective ones: the event was still pending
        self._pending = []

    def add(self, kind, delay, fn, *args):
        self.scheduled += 1
        entry = [self.now + delay, self.scheduled, fn, args, True]
        bisect.insort(self._pending, entry)  # (time, seq); seq is unique
        return entry if kind in HANDLE_KINDS else None

    def every(self, delay, fn, arg):
        def tick(arg):
            if fn(arg) is True:
                self.add("lane", delay, tick, arg)

        self.add("lane", delay, tick, arg)

    def cancel(self, entry):
        if entry[4]:
            entry[4] = False
            self.cancellations += 1

    def stop(self):
        """Nothing to halt: drives resume a stopped run until it drains."""

    def drive(self):
        while self._pending:
            entry = self._pending.pop(0)
            when, _seq, fn, args, alive = entry
            if alive:
                entry[4] = False  # fired: cancelling it now counts nothing
                self.now = when
                fn(*args)


class EngineCalendar:
    """The same interface over a Simulator and one way of driving it."""

    def __init__(self, sim, drive):
        self.sim = sim
        self.drive = lambda: drive(self)
        self._stopped_at = None

    @property
    def now(self):
        return self.sim.now

    @property
    def scheduled(self):
        return self.sim.scheduled

    def add(self, kind, delay, fn, *args):
        sim = self.sim
        if kind == "schedule":
            return sim.schedule(delay, fn, *args)
        if kind == "schedule_at":
            return sim.schedule_at(sim.now + delay, fn, *args)
        if kind == "call":
            sim.call(delay, fn, *args)
            return None
        (arg,) = args  # a unary kind
        if kind == "call_chained":
            sim.call_chained(delay, fn, arg)
        else:
            sim.lane(delay).call(fn, arg)
        return None

    def every(self, delay, fn, arg):
        self.sim.lane(delay).every(fn, arg)

    def cancel(self, handle):
        handle.cancel()

    def stop(self):
        self.sim.stop()
        self._stopped_at = (self.sim.now, self.sim.events_processed)

    def run(self, until=None):
        """``sim.run(until)``, resumed for as long as a ``stop()`` cuts it short."""
        sim = self.sim
        while True:
            self._stopped_at = None
            sim.run(until)
            if self._stopped_at is None:
                return
            # Halted after the stopping event and nothing else: no later
            # event fired and the clock did not jump ahead to ``until``.
            assert (sim.now, sim.events_processed) == self._stopped_at


def execute(program, calendar):
    """Run ``program`` on ``calendar``; returns the (time, seq, label) log."""
    log = []
    handles = []

    def fire(packed):
        seq, label, children = packed
        log.append((calendar.now, seq, label))
        issue(children, label)

    def fire3(seq, label, children):
        fire((seq, label, children))

    class Event:
        """Carries its own data: ``Event(packed).fire`` takes no argument."""

        def __init__(self, packed):
            self.packed = packed

        def fire(self):
            fire(self.packed)

        def fire1(self, packed):
            fire(packed)

        def fire3(self, seq, label, children):
            fire((seq, label, children))

    class Train:
        """Fires ``ticks`` times; each firing logs the ``seq`` it fired with."""

        def __init__(self, label, ticks, children):
            self.label, self.left, self.children = label, ticks, children
            self.seq = calendar.scheduled + 1
            self.fired = 0

        def fire(self, _arg):
            self.fired += 1
            label = f"{self.label}#{self.fired}"
            log.append((calendar.now, self.seq, label))
            issue(self.children, label)
            self.left -= 1
            self.seq = calendar.scheduled + 1  # what the re-arm takes
            return self.left > 0

    def callback(kind, form, packed):
        """``(fn, args)`` scheduling one event of ``kind`` in ``form``."""
        if kind in UNARY_KINDS:
            return fire, (packed,)
        arity, style = form
        if arity == 0:
            return {
                "method": Event(packed).fire,
                "closure": lambda: fire(packed),
                "builtin": functools.partial(fire, packed),
            }[style], ()
        if arity == 1:
            if style == "builtin":  # operator.call(f) fires f()
                return operator.call, (functools.partial(fire, packed),)
            return (Event(None).fire1 if style == "method" else fire), (packed,)
        seq, label, children = packed
        if style == "builtin":  # operator.call(f, a, b) fires f(a, b)
            return operator.call, (functools.partial(fire3, seq), label, children)
        return (Event(None).fire3 if style == "method" else fire3), packed

    def issue(operations, prefix):
        for i, operation in enumerate(operations):
            if operation[0] == "cancel":
                if handles:
                    calendar.cancel(handles[operation[1] % len(handles)])
                continue
            if operation[0] == "stop":
                calendar.stop()
                continue
            kind, delay, form, children = operation
            if kind == "train":
                train = Train(f"{prefix}/{i}", form, children)
                calendar.every(delay, train.fire, None)
                continue
            fn, args = callback(
                kind, form, (calendar.scheduled + 1, f"{prefix}/{i}", children),
            )
            handle = calendar.add(kind, delay, fn, *args)
            if handle is not None:
                handles.append(handle)

    issue(program, "")
    calendar.drive()
    return log


class CountingProfile:
    """A ProfileSink whose injected clock is a counter."""

    def __init__(self):
        self.clock = itertools.count().__next__
        self.calls = 0

    def record(self, key, seconds):
        self.calls += 1


def _drive_run(calendar):
    calendar.run()


def _drive_step(calendar):
    while calendar.sim.step():
        pass


def _drive_split(split_at, due_by):
    def drive(calendar):
        sim = calendar.sim
        for horizon, due in zip(split_at, due_by):
            calendar.run(until=horizon)
            assert sim.now == horizon
            assert sim.events_processed == due, f"run(until={horizon!r})"
        calendar.run()
    return drive


def _drive_mixed(split_at, due_by):
    """``step()`` and ``run(until)`` alternating on one simulator."""
    def drive(calendar):
        sim = calendar.sim
        for horizon, due in zip(split_at, due_by):
            sim.step()  # may overshoot, making run(until=horizon) a no-op
            calendar.run(until=horizon)
            assert sim.now >= horizon
            assert sim.events_processed >= due, f"run(until={horizon!r})"
        while sim.step():
            calendar.run(until=sim.now)  # whatever else is due at this instant
    return drive


def _profiled(drive):
    def profiled_drive(calendar):
        profile = CountingProfile()
        calendar.sim.enable_profiling(profile)
        drive(calendar)
        assert profile.calls == calendar.sim.events_processed
    return profiled_drive


@given(programs, horizons, st.booleans())
@settings(max_examples=150, deadline=None)
def test_every_dispatch_path_matches_the_reference_calendar(program, split_at, strict):
    reference = ReferenceCalendar()
    expected = execute(program, reference)
    # run(until=h) fires what is due by h — an event at exactly h included.
    due_by = [sum(when <= h for when, _, _ in expected) for h in split_at]
    drives = {
        "run": _drive_run,
        "step": _drive_step,
        "split run(until)": _drive_split(split_at, due_by),
        "mixed step / run(until)": _drive_mixed(split_at, due_by),
        "profiled": _profiled(_drive_run),
        "profiled step": _profiled(_drive_step),
        "profiled split": _profiled(_drive_split(split_at, due_by)),
    }
    for name, drive in drives.items():
        sim = Simulator(strict=strict)
        fired = execute(program, EngineCalendar(sim, drive))
        assert fired == expected, name
        assert sim.scheduled == reference.scheduled, name
        assert sim.events_processed == len(expected), name
        assert sim.pending == 0, name
        assert sim.cancellations == reference.cancellations, name
        assert sim.garbage_ratio == 0.0, name
