"""Per-run observability artifact export for sweeps (``--obs-dir``).

:class:`ObsDirWriter` writes one file per artifact kind per run —
``NNNN-<controller>-sS.trace.jsonl`` / ``.metrics.json`` /
``.timeseries.json`` — plus a canonical ``manifest.json`` naming every
file with its SHA-256 and record count.  Everything about the output is
deterministic: run names come from the task index, controller name, and
seed; files are canonical JSON/JSONL; the manifest carries **no
timestamps**, so two sweeps of the same task list produce byte-identical
directories (the CI obs-smoke job compares a serial and a ``--jobs 4``
sweep with ``cmp``).

:func:`write_artifact` writes every run artifact in one encoding; the
``repro-eac run --trace/--metrics/--timeseries PATH`` flags and
``python -m repro.obs merge -o`` write through it too.  Writes are atomic
(:func:`repro.canonical.atomic_write_text`) so a crash never leaves a
truncated artifact; a re-run simply overwrites.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import canonical

#: Manifest payload version.
MANIFEST_SCHEMA_VERSION = 1

#: File suffix of each artifact kind a run can carry.
_SUFFIXES = {
    "trace": "trace.jsonl",
    "metrics": "metrics.json",
    "timeseries": "timeseries.json",
}


def encode_artifact(kind: str, payload: Any) -> str:
    """The canonical file text of one run artifact.

    A trace (a list of JSONL records) is one record per line; a metrics
    snapshot or time series is one canonical JSON line.
    """
    if kind == "trace":
        return "".join(line + "\n" for line in payload)
    return canonical.dumps(payload) + "\n"


def write_artifact(path: Path, kind: str, payload: Any) -> Dict[str, Any]:
    """Atomically write one run artifact; returns its manifest entry.

    The entry holds the file name, SHA-256, byte count and, for a trace
    or time series, the record count.
    """
    text = encode_artifact(kind, payload)
    canonical.atomic_write_text(path, text)
    data = text.encode()
    entry: Dict[str, Any] = {
        "path": path.name,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }
    if kind == "trace":
        entry["records"] = len(payload)
    elif kind == "timeseries":
        entry["records"] = len(payload.get("t", ()))
    return entry


def sanitize_name(text: str) -> str:
    """A filesystem-safe slug: alphanumerics kept, runs of the rest -> '-'."""
    out: List[str] = []
    previous_dash = False
    for ch in text:
        if ch.isalnum() or ch in ("-", "_", "."):
            out.append(ch)
            previous_dash = False
        elif not previous_dash:
            out.append("-")
            previous_dash = True
    return "".join(out).strip("-") or "run"


class ObsDirWriter:
    """Writes per-run artifacts and a manifest into one directory.

    Feed it runs in task order via :meth:`write_run`, then call
    :meth:`write_manifest` once.  Only artifacts actually present on the
    result are written — an untraced run contributes no trace file and
    no manifest entry for one.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._runs: List[Dict[str, Any]] = []

    @staticmethod
    def run_name(index: int, controller_name: str, seed: int) -> str:
        """Deterministic artifact basename for one task of a sweep."""
        return f"{index:04d}-{sanitize_name(controller_name)}-s{seed}"

    def write_run(
        self,
        index: int,
        controller_name: str,
        seed: int,
        trace: Optional[List[str]] = None,
        metrics: Optional[Dict[str, Any]] = None,
        timeseries: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Write one run's artifacts; returns the run's basename."""
        name = self.run_name(index, controller_name, seed)
        files: Dict[str, Dict[str, Any]] = {}
        payloads = {"trace": trace, "metrics": metrics, "timeseries": timeseries}
        for kind, payload in payloads.items():
            if payload is not None:
                path = self.directory / f"{name}.{_SUFFIXES[kind]}"
                files[kind] = write_artifact(path, kind, payload)
        self._runs.append({
            "index": index,
            "name": name,
            "controller": controller_name,
            "seed": seed,
            "files": files,
        })
        return name

    def write_manifest(self) -> Path:
        """Write the canonical ``manifest.json``; returns its path.

        The manifest lists runs in task order with their artifact
        digests; no wall-clock fields, so manifests of equal sweeps are
        byte-identical.
        """
        payload = {
            "v": MANIFEST_SCHEMA_VERSION,
            "runs": self._runs,
        }
        path = self.directory / "manifest.json"
        canonical.atomic_write_text(path, canonical.dumps(payload) + "\n")
        return path
