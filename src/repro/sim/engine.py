"""Discrete-event simulation engine.

The engine is a classic calendar built on :mod:`heapq`.  It is the hot path
of every experiment, so it favors plain data structures over abstraction:

* events are small lists ``[time, seq, callback, arg, alive]`` — the list
  (rather than a tuple) lets :meth:`EventHandle.cancel` flip the ``alive``
  flag in O(1) without touching the heap;
* the monotonically increasing ``seq`` breaks ties deterministically, which
  keeps runs bit-for-bit reproducible for a given seed;
* an event is one callable and one argument, fired as ``callback(arg)``
  (``f(a)`` is cheaper than ``f(*args)``, and every per-packet event
  takes exactly one): :meth:`Lane.call` and :meth:`Simulator.call_chained`
  take exactly one, and the general schedulers adapt any other arity
  once, at scheduling (:func:`_unary`).

Two fast paths keep per-event constant costs down without changing
dispatch order (DESIGN.md §11 gives the invariants):

* **constant-delay lanes** — :meth:`Simulator.lane` hands out one FIFO
  deque per distinct fixed delay (a link's propagation delay, a source's
  packet interval; delay 0 is where same-time events go).  ``now + delay``
  is monotone in the non-decreasing clock and ``seq`` increases, so a lane
  is sorted by construction and :meth:`Lane.call` is an append; the front
  of every non-empty lane sits in one small heap of fronts that the
  dispatch loop merges with the main heap on the same (time, seq) key.
  A fixed-interval *train* (:meth:`Lane.every`: a source's packet ticks)
  is one lane record that the loop re-arms in place, with the ``seq`` a
  :meth:`Lane.call` at the end of its callback would take, for as long
  as the callback returns ``True``;
* **chain slot** — :meth:`call_chained` parks the *expected next* event of
  a self-clocked component (an output port serializing a queue backlog) in
  four scalar slots (time, seq, callback, arg) rather than a record: a
  chained event cannot be cancelled, so it needs no ``alive`` flag and no
  record at all.  While the chain stays the earliest pending event it is
  dispatched straight from the slots — zero heap operations and zero
  record traffic per link — and it simply waits (still in correct
  (time, seq) order) whenever another event is due sooner.

Everything else has exactly one implementation: one loop
(:meth:`Simulator._loop`) selects, pops and dispatches for :meth:`run`,
:meth:`step` and profiled runs alike, and a record is built once, fires or
is cancelled once, and is then left to the garbage collector.

Event times are validated at scheduling time: a NaN deadline compares False
against every bound (``when < self.now`` never fires), so without the check
a single NaN would silently corrupt the heap's ordering and with it every
downstream result.  :class:`Simulator` therefore rejects non-finite times
unconditionally, and ``Simulator(strict=True)`` adds the dynamic checks a
linter cannot prove statically: a monotone clock and re-checked finite
times at dispatch.  Heap compaction (cancelled records rebuilt away once
they dominate the calendar) runs in *every* engine, not just strict mode —
long admission-control sweeps cancel enough timers for the garbage to
dominate the heap.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(1.5, fired.append, "hello")
>>> sim.run(until=10.0)
>>> fired
['hello']
>>> sim.now
10.0
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from types import MethodType
from typing import Any, Callable, Deque, Dict, List, NoReturn, Optional, Protocol, Tuple

from repro.errors import SimulationError


class TraceSink(Protocol):
    """Structural interface for event-trace recorders (see ``repro.obs``).

    The engine (and the network/endpoint components) never import the obs
    package — they hold an optional attribute typed against this protocol,
    the same layering trick :class:`repro.net.link.LossModel` uses to keep
    ``net`` from importing ``faults``.  Records carry *simulation* time
    only; anything wall-clock lives in the harness domain (DESIGN.md §13).
    """

    def emit(self, category: str, t: float, /, **fields: object) -> None:
        """Record one event at sim time ``t`` under ``category``."""
        ...


class ProfileSink(Protocol):
    """Structural interface for per-callback wall-time profiling.

    The clock is *injected* by the harness (``repro.experiments.parallel``
    passes ``time.perf_counter``): the engine never imports :mod:`time`, so
    the wall-clock read originates in an exempt harness module and the
    ``repro.lint`` DET002 gate stays clean (DESIGN.md §13).
    """

    clock: Callable[[], float]

    def record(self, key: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall time against callback ``key``."""
        ...

# Index constants for the event record; kept module-private.  Lane records
# carry two more fields: the deque they wait in, so the loop can advance the
# right lane, and the lane's delay if the record is a train (``None`` for a
# one-shot event).  ``Simulator._loop`` spells these indices as literals (a
# literal subscript skips a global lookup per use); this is the layout.
_TIME, _SEQ, _FN, _ARG, _ALIVE, _QUEUE, _TRAIN = 0, 1, 2, 3, 4, 5, 6

#: Stand-in for "no record" in the dispatch loop's selection: later than
#: any event can be (event times are finite), so whatever faces it wins.
_NEVER: List[Any] = [math.inf, 0, None, None, False]

#: Minimum number of cancelled records before the engine considers
#: compacting the heap (avoids rebuilding tiny calendars).
_COMPACT_MIN = 512

#: Process-wide default for ``Simulator(strict=None)``; see
#: :func:`set_strict_default`.
_strict_default = False


def set_strict_default(enabled: bool) -> bool:
    """Set the process-wide default strictness; returns the previous value.

    Simulators constructed without an explicit ``strict=`` argument pick
    this up.  The test suite turns it on (every simulator built by a test
    gets the dynamic validations for free); production sweeps leave it
    off, so the hot path stays unchecked.
    """
    global _strict_default
    previous = _strict_default
    _strict_default = bool(enabled)
    return previous


def strict_default() -> bool:
    """The current process-wide default strictness."""
    return _strict_default


def _call0(fn: Callable[[], Any]) -> None:
    """Trampoline for a zero-argument callback that is not a bound method."""
    fn()


def _call_n(packed: Tuple[Callable[..., Any], Tuple[Any, ...]]) -> None:
    """Trampoline for a callback of two or more arguments."""
    fn, args = packed
    fn(*args)


def _unary(
    fn: Callable[..., Any], args: Tuple[Any, ...]
) -> Tuple[Callable[[Any], Any], Any]:
    """``(callable, arg)`` firing ``fn(*args)`` for any arity but one.

    The schedulers handle one argument inline and come here otherwise, so
    the adaptation is paid once per schedule and never at dispatch.  A
    zero-argument bound method (most flow-level timers) needs no
    trampoline: its function takes the instance as its one argument.
    """
    if args:
        return _call_n, (fn, args)
    if type(fn) is MethodType:
        return fn.__func__, fn.__self__
    return _call0, fn


def _reject_delay(delay: float) -> NoReturn:
    """Raise for a delay that failed the schedulers' ``delay >= 0`` test.

    The schedulers keep that one comparison inline (a Python-level call per
    schedule is the biggest constant the profile shows on the datapath) and
    come here only to fail.
    """
    if math.isnan(delay):
        raise SimulationError("cannot schedule at a NaN delay")
    raise SimulationError(f"cannot schedule {delay!r}s in the past")


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the record stays in the heap but is skipped when
    popped.  This makes cancel O(1) at the cost of a little heap garbage,
    which is the right trade-off for timers that are usually *not* cancelled.
    A record belongs to one event for life, so the handle is just a view of
    it: ``alive`` goes False when the event fires or is cancelled, and
    ``time`` keeps reading the fire time afterwards.
    """

    __slots__ = ("_record", "_sim")

    def __init__(self, record: List[Any], sim: "Simulator") -> None:
        self._record = record
        self._sim = sim

    @property
    def time(self) -> float:
        """Absolute simulation time at which the event will fire."""
        return float(self._record[_TIME])

    @property
    def alive(self) -> bool:
        """True while the event is still pending (not cancelled, not fired)."""
        return bool(self._record[_ALIVE])

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is harmless."""
        record = self._record
        if record[_ALIVE]:
            record[_ALIVE] = False
            sim = self._sim
            sim._cancelled += 1  # feeds the garbage ratio
            sim._cancel_total += 1


class Lane:
    """Events that all fire one fixed ``delay`` after they are scheduled.

    Obtained from :meth:`Simulator.lane`; components resolve theirs once
    (a port from its propagation delay, a source from its packet interval)
    and call :meth:`call` per packet, or :meth:`every` once per train.  Use
    a lane only for events with a *fixed* delay that are never cancelled —
    like :meth:`Simulator.call` there is no handle; guard in the callback
    instead.
    """

    __slots__ = ("delay", "_sim", "_queue")

    def __init__(self, sim: "Simulator", delay: float) -> None:
        self.delay = delay
        self._sim = sim
        self._queue: Deque[List[Any]] = deque()

    def call(self, fn: Callable[[Any], Any], arg: Any) -> None:
        """Schedule ``fn(arg)`` to run :attr:`delay` seconds from now.

        Same semantics (and the same ``seq``) as ``sim.call(delay, fn,
        arg)``.  Exactly one argument: a lane serves per-packet events,
        so there is no adaptation here and a wrong arity is a
        ``TypeError`` at scheduling.  The clock never runs backwards and
        the delay is fixed, so the new record sorts after everything
        already in the lane and an append keeps it ordered; only a lane
        that was empty has to announce its new front to the dispatch loop.
        """
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        queue = self._queue
        record = [sim.now + self.delay, seq, fn, arg, True, queue, None]
        if not queue:
            heapq.heappush(sim._fronts, record)
        queue.append(record)

    def every(self, fn: Callable[[Any], bool], arg: Any) -> None:
        """Start a train: ``fn(arg)`` every :attr:`delay` seconds from now.

        The first event is exactly the one :meth:`call` would schedule.
        Each time it fires and ``fn`` returns exactly ``True``, the
        dispatch loop re-arms the same record one :attr:`delay` later,
        taking the next ``seq`` — the one a :meth:`call` as the last
        statement of ``fn`` would have taken — so a train is
        indistinguishable from a callback that reschedules itself, minus
        the record and the call per tick.  Any other return value ends
        the train.  Like :meth:`call` there is no handle: a train stops
        when its callback says so (a source's epoch guard).
        """
        self.call(fn, arg)
        self._queue[-1][_TRAIN] = self.delay


class Simulator:
    """Event calendar with a virtual clock.

    The public surface is deliberately tiny: :meth:`schedule`,
    :meth:`schedule_at`, :meth:`run`, :meth:`step`, and :attr:`now`.
    Components (links, sources, endpoint agents) hold a reference to the
    simulator and schedule their own callbacks.

    Parameters
    ----------
    strict:
        Enable the debug validations that static analysis cannot prove:
        the clock is checked to be monotone at every dispatch (catching
        post-push mutation of event records) and event times are re-checked
        finite at dispatch.  Costs a few percent of event throughput; leave
        off for production sweeps.  ``None`` (the default) defers to the
        process-wide :func:`set_strict_default` setting — off unless
        something (e.g. the test suite) turned it on.
    """

    __slots__ = ("now", "strict", "trace", "_heap", "_lanes", "_fronts", "_now_lane",
                 "_chain_time", "_chain_seq", "_chain_fn", "_chain_arg",
                 "_seq", "_stopped", "_events_processed", "_cancelled",
                 "_cancel_total", "_compactions", "_profile")

    def __init__(self, strict: Optional[bool] = None) -> None:
        self.now: float = 0.0
        self.strict: bool = _strict_default if strict is None else strict
        #: Optional event-trace recorder (``repro.obs``); the engine only
        #: touches it on the rare compaction path, never per event.
        self.trace: Optional[TraceSink] = None
        self._profile: Optional[ProfileSink] = None
        self._heap: List[List[Any]] = []
        #: Constant-delay lanes by delay (see :meth:`lane`), and the heap
        #: holding the front record of every non-empty one.
        self._lanes: Dict[float, Lane] = {}
        self._fronts: List[List[Any]] = []
        #: Where events scheduled for exactly the current time go.
        self._now_lane: Lane = self.lane(0.0)
        #: The chain slot (see call_chained) is four scalar slots rather
        #: than an event record: chained events cannot be cancelled, so
        #: they need no ``alive`` flag, no handle, and no record traffic
        #: at all — the fields are read and overwritten in place.  The
        #: slot is empty iff ``_chain_fn is None``.
        self._chain_time: float = 0.0
        self._chain_seq: int = 0
        self._chain_fn: Optional[Callable[[Any], Any]] = None
        self._chain_arg: Any = None
        self._seq: int = 0
        self._stopped: bool = False
        self._events_processed: int = 0
        self._cancelled: int = 0
        self._cancel_total: int = 0
        self._compactions: int = 0

    # -- scheduling -----------------------------------------------------

    def lane(self, delay: float) -> Lane:
        """The :class:`Lane` for events scheduled ``delay`` seconds ahead.

        One lane exists per distinct delay: components that ask for the
        same delay share it.  The delay is validated here, once, so
        :meth:`Lane.call` does not have to.
        """
        lane = self._lanes.get(delay)
        if lane is None:
            if not (delay >= 0):  # rejects negatives and NaN in one comparison
                _reject_delay(delay)
            if delay == math.inf:
                raise SimulationError(f"cannot schedule at non-finite delay {delay!r}")
            lane = self._lanes[delay] = Lane(self, delay)
        return lane

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not (delay >= 0):
            _reject_delay(delay)
        return self.schedule_at(self.now + delay, fn, *args)

    def call(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fast-path schedule with no cancellation handle.

        Identical semantics to :meth:`schedule` but skips the
        :class:`EventHandle` allocation; use it for the per-packet events of
        the datapath, which are never cancelled (their callbacks guard on
        component state instead).  A delay that is the same every time
        belongs on a :meth:`lane` instead.
        """
        if not (delay >= 0):
            _reject_delay(delay)
        when = self.now + delay
        if when == math.inf:
            raise SimulationError(f"cannot schedule at non-finite time {when!r}")
        if len(args) == 1:
            arg = args[0]
        else:
            fn, arg = _unary(fn, args)
        if when > self.now:
            self._seq += 1
            heapq.heappush(self._heap, [when, self._seq, fn, arg, True])
        else:
            # ``when >= now`` already held above, so this means "exactly
            # now": the event sorts after every pending same-time event
            # (largest seq) and before everything later — lane(0).
            self._now_lane.call(fn, arg)

    def call_chained(self, delay: float, fn: Callable[[Any], Any], arg: Any) -> None:
        """Schedule the next link of a self-clocked event chain.

        Semantically identical to :meth:`call`; the event is parked in a
        one-deep scalar slot instead of the heap.  The dispatch loop
        compares the slot against the heap and lane fronts, so when the
        chained event is the earliest pending event — the common case for
        an output port draining its backlog — it dispatches straight from
        the slot with zero heap operations and no event record.  The
        slot only spills into the heap (as an ordinary record) when a
        second chain claims it.  Chained events cannot be cancelled;
        guard in the callback instead.  Like :meth:`Lane.call` it takes
        exactly one argument.
        """
        if not (delay >= 0):
            _reject_delay(delay)
        when = self.now + delay
        if when == math.inf:
            raise SimulationError(f"cannot schedule at non-finite time {when!r}")
        self._seq += 1
        if self._chain_fn is not None:
            # Two live chains (two busy ports): the older one takes the
            # ordinary heap route, the newest keeps the slot.
            heapq.heappush(self._heap, [
                self._chain_time, self._chain_seq,
                self._chain_fn, self._chain_arg, True,
            ])
        self._chain_time = when
        self._chain_seq = self._seq
        self._chain_fn = fn
        self._chain_arg = arg

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``when``."""
        if not (when >= self.now):  # rejects the past and NaN in one comparison
            if math.isnan(when):
                raise SimulationError("cannot schedule at a NaN time")
            raise SimulationError(
                f"cannot schedule at t={when!r} before current time t={self.now!r}"
            )
        if when == math.inf:
            raise SimulationError(f"cannot schedule at non-finite time {when!r}")
        if len(args) == 1:
            arg = args[0]
        else:
            fn, arg = _unary(fn, args)
        if when > self.now:
            self._seq += 1
            record = [when, self._seq, fn, arg, True]
            heapq.heappush(self._heap, record)
        else:
            # lane(0) again: ``when`` equals the current time.
            self._now_lane.call(fn, arg)
            record = self._now_lane._queue[-1]
        return EventHandle(record, self)

    # -- execution ------------------------------------------------------

    def _loop(self, horizon: float, single: bool) -> None:
        """Dispatch events due by ``horizon`` in (time, seq) order.

        The only code that selects, pops and dispatches: :meth:`run` and
        :meth:`step` (``single``: return after one event) are thin callers.
        The earliest of the heap root, the earliest lane front and the chain
        slot wins.  Record comparison is (time, seq) lexicographic — ``seq``
        is unique, so list comparison never reaches the callback fields —
        and the scalar chain slot is compared on the same key.  An event
        that is not yet due stays parked where it is.

        Everything that is not the production run — strict validation, an
        installed profiler, single-stepping — hides behind the one local
        ``careful``, fixed at entry and tested once per dispatch; the plain
        branch advances the clock and fires the callback inline, because at
        millions of events per sweep a Python-level call per event is the
        dominant constant.  For the same reason record fields are read by
        literal index (layout at ``_TIME`` ... ``_TRAIN``).

        A lane record that is a train (:meth:`Lane.every`) and whose
        callback returned exactly ``True`` is re-armed here, after the
        callback: the next ``seq``, one lane delay later (``when`` is the
        clock, so ``when + delay`` is the ``now + delay`` of
        :meth:`Lane.call`), appended to its lane.  Heap records, plain lane
        records and the chain slot ignore what their callback returns.
        """
        self._stopped = False
        careful = single or self.strict or self._profile is not None
        heap = self._heap  # _compact mutates in place, so the alias holds
        fronts = self._fronts
        pop = heapq.heappop
        replace = heapq.heapreplace
        while not self._stopped:
            # -- select the earliest of heap root, lane fronts, chain slot --
            if fronts:
                record = fronts[0]
                in_lane = True
                if heap and heap[0] < record:
                    record = heap[0]
                    in_lane = False
            elif heap:
                record = heap[0]
                in_lane = False
            elif self._chain_fn is None:
                break  # the calendar is empty
            else:
                record = _NEVER  # only the chain slot is occupied: it wins
                in_lane = False
            chain_fn = self._chain_fn
            if chain_fn is not None:
                when = self._chain_time
                if when < record[0] or (
                    when == record[0] and self._chain_seq < record[1]
                ):
                    # The chain is due next: dispatch straight from the
                    # slot — no record, no heap op.  (The compaction check
                    # is skipped here; garbage only accumulates through the
                    # record sources, whose dispatch below still bounds it.)
                    if when > horizon:
                        break
                    arg = self._chain_arg
                    self._chain_fn = None
                    self._chain_arg = None
                    if careful:
                        self._fire_carefully(when, chain_fn, arg)
                        if single:
                            break
                        continue
                    self.now = when
                    self._events_processed += 1
                    chain_fn(arg)
                    continue
            when = record[0]
            if when > horizon and record[4]:
                break
            if in_lane:
                queue = record[5]
                queue.popleft()
                if queue:
                    replace(fronts, queue[0])
                else:
                    pop(fronts)
            else:
                pop(heap)
            cancelled = self._cancelled
            if not record[4]:
                # Cancelled garbage: drop it and keep looking.
                if cancelled > 0:
                    self._cancelled = cancelled - 1
                continue
            # -- dispatch ------------------------------------------------
            if cancelled >= _COMPACT_MIN and cancelled > len(heap) // 2:
                self._compact()
            record[4] = False
            if careful:
                result = self._fire_carefully(when, record[2], record[3])
            else:
                self.now = when
                self._events_processed += 1
                result = record[2](record[3])
            if result is True and in_lane and record[6] is not None:
                # A train goes on: re-arm the same record (see Lane.every).
                self._seq = seq = self._seq + 1
                record[0] = when + record[6]
                record[1] = seq
                record[4] = True
                queue = record[5]
                if not queue:
                    heapq.heappush(fronts, record)
                queue.append(record)
            if single:
                break

    def _fire_carefully(
        self, when: float, fn: Callable[[Any], Any], arg: Any
    ) -> Any:
        """Fire one event off the production path (see :meth:`_loop`).

        Strict mode first checks what a linter cannot prove — the time is
        still finite and the clock monotone, i.e. nobody mutated the record
        after scheduling; an installed profiler brackets the callback with
        two reads of its injected clock.  The profile key is the
        ``__qualname__`` of the callback as it was scheduled: a trampoline
        is keyed by the callback it wraps, and an unbound zero-argument
        method's function has its bound method's qualname.  Returns what
        the callback returned: the loop re-arms a train after a careful
        dispatch exactly as after a production one.
        """
        if self.strict:
            if not math.isfinite(when):
                raise SimulationError(
                    f"event record carries non-finite time {when!r} "
                    "(mutated after scheduling?)"
                )
            if when < self.now:
                raise SimulationError(
                    f"clock would move backwards: event at t={when!r} dispatched "
                    f"at t={self.now!r}"
                )
        self.now = when
        self._events_processed += 1
        profile = self._profile
        if profile is None:
            return fn(arg)
        target = arg if fn is _call0 else arg[0] if fn is _call_n else fn
        key = getattr(target, "__qualname__", None) or repr(target)
        clock = profile.clock
        start = clock()
        result = fn(arg)
        profile.record(key, clock() - start)
        return result

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled records.

        The rebuild is in place (slice assignment) so that the loop's
        local alias of the heap list stays valid across a compaction.
        """
        heap = self._heap
        size = len(heap)
        heap[:] = [record for record in heap if record[_ALIVE]]
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1
        tr = self.trace
        if tr is not None:
            tr.emit("sim", self.now, event="compact",
                    freed=size - len(heap), live=len(heap))

    def step(self) -> bool:
        """Run the single next pending event.

        Returns True if an event ran, False if the calendar is empty.
        """
        before = self._events_processed
        self._loop(math.inf, True)
        return self._events_processed > before

    def run(self, until: Optional[float] = None) -> None:
        """Run events in time order.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            ``until`` and advance the clock to exactly ``until``.  If omitted,
            run until the calendar drains or :meth:`stop` is called.
        """
        self._loop(math.inf if until is None else until, False)
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def enable_profiling(self, profile: Optional[ProfileSink]) -> None:
        """Install (or, with ``None``, remove) a per-callback profiler.

        The profiler's clock must be injected by harness code (see
        :class:`ProfileSink`); results are wall-clock and therefore live
        outside the deterministic result set — they ride in progress
        events, never in cached :class:`ScenarioResult` payloads.
        """
        self._profile = profile

    def stop(self) -> None:
        """Halt :meth:`run` after the currently executing event returns."""
        self._stopped = True

    # -- introspection ----------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of events still pending (excluding cancelled garbage)."""
        count = sum(1 for record in self._heap if record[_ALIVE])
        for lane in self._lanes.values():
            count += sum(1 for record in lane._queue if record[_ALIVE])
        if self._chain_fn is not None:
            count += 1
        return count

    @property
    def events_processed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_processed

    @property
    def garbage_ratio(self) -> float:
        """Fraction of the calendar occupied by cancelled-but-unpopped records."""
        size = len(self._heap) + sum(len(lane._queue) for lane in self._lanes.values())
        if size == 0:
            return 0.0
        return self._cancelled / size

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed so far."""
        return self._compactions

    @property
    def scheduled(self) -> int:
        """Total number of events ever scheduled (heap, lanes and chain slot)."""
        return self._seq

    @property
    def cancellations(self) -> int:
        """Total number of handle cancellations since construction.

        Unlike the internal garbage counter this never decreases: it counts
        every :meth:`EventHandle.cancel`, whether or not the record has
        since been popped or compacted away.
        """
        return self._cancel_total

    @property
    def profile(self) -> Optional[ProfileSink]:
        """The installed profiler, if any (see :meth:`enable_profiling`)."""
        return self._profile
