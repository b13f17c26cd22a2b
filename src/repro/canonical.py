"""The byte format of every JSON artifact, and how one reaches the disk.

Traces, metrics, time series, span lines, manifests and run-key
material are all *canonical JSON*: sorted keys, compact separators,
floats in shortest-repr form — so equal values give equal bytes on every
machine, which is what the golden fixtures, the sha256 manifests and the
content-addressed cache keys rely on.  A cache entry is canonical JSON
lines: a header object, then the run's trace lines verbatim.  Files are
published by write-then-rename, so a reader (another worker of a sweep, a
second session) sees a whole file or none.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

#: ``dumps(obj)`` is the canonical JSON text of ``obj``: sorted keys,
#: compact separators.  One encoder for the life of the process —
#: ``json.dumps`` with keyword arguments builds a fresh one per call, and
#: a traced run serialises one record per packet.
dumps: Callable[[Any], str] = json.JSONEncoder(
    sort_keys=True, separators=(",", ":")
).encode


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and ``os.replace``.

    The temp name carries the pid, so concurrent writers of one path never
    share it.  On any failure, ``KeyboardInterrupt`` included, the temp
    file is removed before the exception propagates.  Nothing is fsynced:
    artifacts are reproducible, and sweeps write thousands of small ones.
    """
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
