"""Restartable timers built on the event engine.

TCP retransmission timeouts need a timer that can be started, restarted
(pushing the deadline out), and stopped.  Doing that with raw
:class:`~repro.sim.engine.EventHandle` objects at every call site is
error-prone; :class:`Timer` packages the pattern.  The endpoint agent's
probe checkpoints and watchdog keep raw handles: each deadline is armed once
and at most cancelled, never pushed out.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import EventHandle, Simulator


class Timer:
    """A single-shot, restartable timer.

    >>> sim = Simulator()
    >>> fired = []
    >>> t = Timer(sim, lambda: fired.append(sim.now))
    >>> t.start(5.0)
    >>> t.restart(8.0)   # supersedes the 5.0s deadline
    >>> sim.run()
    >>> fired
    [8.0]
    """

    __slots__ = ("_sim", "_fn", "_args", "_handle")

    def __init__(self, sim: Simulator, fn: Callable[..., Any], *args: Any) -> None:
        self._sim = sim
        self._fn = fn
        self._args = args
        self._handle: Optional[EventHandle] = None

    @property
    def running(self) -> bool:
        """True while a deadline is pending."""
        return self._handle is not None and self._handle.alive

    @property
    def deadline(self) -> Optional[float]:
        """Absolute time of the pending deadline, or None when stopped."""
        handle = self._handle
        if handle is not None and handle.alive:
            return handle.time
        return None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now.

        Starting an already running timer replaces the old deadline.
        """
        self.stop()
        self._handle = self._sim.schedule(delay, self._fire)

    def restart(self, delay: float) -> None:
        """Alias of :meth:`start`; reads better at call sites that push out a deadline."""
        self.start(delay)

    def stop(self) -> None:
        """Disarm the timer.  Stopping an idle timer is harmless."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._fn(*self._args)
