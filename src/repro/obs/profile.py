"""Per-callback wall-time profiling (harness domain only).

:class:`CallbackProfile` satisfies the engine's
:class:`~repro.sim.engine.ProfileSink` protocol.  Its clock is
**injected at construction** — this module imports neither :mod:`time`
nor anything else that reads a wall clock, so the read originates in
whichever harness module builds the profile
(``repro.experiments.parallel`` passes ``time.perf_counter``) and the
``repro.lint`` DET002 wall-clock gate stays clean with no waiver.

Profiles are *not* deterministic and therefore never enter cached
results: they ride in :class:`~repro.experiments.parallel.RunEvent`
progress events and are aggregated by the progress tracker.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

#: One aggregated row: ``(callback qualname, total seconds, call count)``.
ProfileRow = Tuple[str, float, int]


class CallbackProfile:
    """Accumulates wall time per callback qualname.

    Parameters
    ----------
    clock:
        A zero-argument monotonic clock (seconds as float).  The caller —
        harness code only — supplies it; typically ``time.perf_counter``.
    """

    __slots__ = ("clock", "seconds", "calls")

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def record(self, key: str, seconds: float) -> None:
        """Accumulate ``seconds`` against callback ``key``."""
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.calls[key] = self.calls.get(key, 0) + 1

    def snapshot(self) -> Tuple[ProfileRow, ...]:
        """Rows sorted by descending total time (name breaks ties).

        The tuple-of-tuples shape is picklable and cheap to ship across
        the process-pool boundary inside a progress event.
        """
        rows = [
            (key, total, self.calls[key])
            for key, total in self.seconds.items()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return tuple(rows)


def merge_rows(into: Dict[str, Tuple[float, int]],
               rows: Tuple[ProfileRow, ...]) -> None:
    """Fold one snapshot into a ``{key: (seconds, calls)}`` accumulator."""
    for key, seconds, calls in rows:
        prev_s, prev_c = into.get(key, (0.0, 0))
        into[key] = (prev_s + seconds, prev_c + calls)


def format_rows(acc: Dict[str, Tuple[float, int]], top: int = 3) -> str:
    """Render the top-N accumulated rows as a one-line summary."""
    rows = sorted(acc.items(), key=lambda kv: (-kv[1][0], kv[0]))[:top]
    parts = [
        f"{key} {seconds:.2f}s/{calls}"
        for key, (seconds, calls) in rows
    ]
    return ", ".join(parts)
