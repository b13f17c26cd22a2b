"""Deterministic structured event tracing.

:class:`TraceRecorder` collects sim-time-stamped records and serializes
them as canonical JSONL — ``sort_keys`` plus compact separators, so two
runs with the same seed produce *byte-identical* trace files, serial or
under ``--jobs N``.  Records carry **simulation time only**; nothing in
this module (or its callers inside the sim domain) may read a wall
clock — profiling lives in the harness domain (DESIGN.md §13).

Sampling is deterministic decimation: each category keeps a running
emission counter and keeps every n-th record.  No RNG, no clock — the
decision is a pure function of the emission sequence, which is itself a
pure function of the seed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro import canonical
from repro.obs.config import ObsConfig

#: Version stamped into every record as ``"v"``.  Bump when the record
#: envelope (reserved keys, their meaning) changes incompatibly.
#: v2 added ``"recorder"`` — the recorder identity that, together with
#: the per-recorder kept index ``"i"``, gives merged streams a total
#: order (see :mod:`repro.obs.merge`).
TRACE_SCHEMA_VERSION = 2

#: Keys owned by the envelope; ``emit`` fields must not collide.
RESERVED_KEYS = ("v", "i", "t", "cat", "recorder")

#: Recorder identity used when none is given (single-recorder runs).
DEFAULT_RECORDER_ID = "r0"


class TraceRecorder:
    """Collects trace records; one instance per scenario run.

    The same recorder object is handed (as a
    :class:`~repro.sim.engine.TraceSink`) to the simulator, the output
    ports, the controller, the fault schedule, and the MBAC estimators —
    they all interleave into one stream ordered by emission, which under a
    deterministic engine *is* sim-time order (ties in scheduling order).

    ``recorder_id`` names this recorder in every record's envelope.  It
    must be distinct per run when streams are later merged: the merge key
    is ``(t, recorder, i)``, and ``i`` is only unique *within* one
    recorder.  The experiment runner derives it from the controller name
    and seed, so every task of a sweep gets a distinct identity.
    """

    __slots__ = ("categories", "max_records", "recorder_id", "_sample",
                 "_seen", "_records", "dropped")

    def __init__(
        self, config: ObsConfig, recorder_id: str = DEFAULT_RECORDER_ID
    ) -> None:
        self.categories = frozenset(config.categories)
        self.max_records = config.max_records
        #: Identity stamped into the envelope's ``"recorder"`` field.
        self.recorder_id = recorder_id
        self._sample: Dict[str, int] = config.sampling()
        #: Per-category emission counts (pre-sampling).
        self._seen: Dict[str, int] = {}
        self._records: List[Tuple[str, float, Dict[str, Any]]] = []
        #: Emissions lost to the ``max_records`` cap (post-sampling).
        self.dropped = 0

    def keeps(self, category: str) -> bool:
        """Whether the category filter lets ``category`` through.

        An emitter may skip a call this returns False for: a filtered
        category advances no counter, so the recorder cannot tell.
        """
        return not self.categories or category in self.categories

    def emit(self, category: str, t: float, /, **fields: object) -> None:
        """Record one event at sim time ``t``.

        Category filtering, decimation, and the record cap are applied in
        that order; filtered-out categories do not advance any counter, so
        enabling an unrelated category never perturbs another's sampling.
        """
        if self.categories and category not in self.categories:
            return
        seen = self._seen
        n = seen.get(category, 0)
        seen[category] = n + 1
        every = self._sample.get(category, 1)
        if every > 1 and n % every:
            return
        if len(self._records) >= self.max_records:
            self.dropped += 1
            return
        self._records.append((category, t, dict(fields)))

    def __len__(self) -> int:
        return len(self._records)

    def counts(self) -> Dict[str, Tuple[int, int]]:
        """Per-category ``(emitted, kept)`` counts, sorted by category."""
        kept: Dict[str, int] = {}
        for category, _t, _fields in self._records:
            kept[category] = kept.get(category, 0) + 1
        return {
            category: (self._seen[category], kept.get(category, 0))
            for category in sorted(self._seen)
        }

    def lines(self) -> List[str]:
        """The kept records as canonical JSONL lines (no trailing newline).

        Each line is ``{"cat": ..., "i": ..., "recorder": ..., "t": ...,
        "v": 2, ...}`` with sorted keys and compact separators; ``i`` is
        this recorder's kept-record index, so a diff can name the first
        divergent record and a merge (keyed ``(t, recorder, i)``) has a
        total order.  Floats round-trip exactly through JSON
        (shortest-repr), so equal runs give equal bytes.
        """
        out: List[str] = []
        dumps = canonical.dumps
        recorder_id = self.recorder_id
        for i, (category, t, fields) in enumerate(self._records):
            record: Dict[str, Any] = {
                "v": TRACE_SCHEMA_VERSION, "i": i, "t": t, "cat": category,
                "recorder": recorder_id,
            }
            for key, value in fields.items():
                if key in RESERVED_KEYS:
                    key = "x_" + key  # never silently clobber the envelope
                record[key] = value
            out.append(dumps(record))
        return out


def parse_lines(lines: Iterable[str]) -> Iterator[Dict[str, Any]]:
    """Parse JSONL trace lines back into record dicts, skipping blanks."""
    for line in lines:
        line = line.strip()
        if line:
            record: Dict[str, Any] = json.loads(line)
            yield record
