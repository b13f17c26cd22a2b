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

Writes are atomic (:func:`repro.canonical.atomic_write_text`) so a
crashed sweep never leaves a truncated artifact; a re-run simply
overwrites.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import canonical

#: Manifest payload version.
MANIFEST_SCHEMA_VERSION = 1


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
        if trace is not None:
            filename = f"{name}.trace.jsonl"
            data = "\n".join(trace) + ("\n" if trace else "")
            canonical.atomic_write_text(self.directory / filename, data)
            files["trace"] = self._entry(filename, data, records=len(trace))
        if metrics is not None:
            filename = f"{name}.metrics.json"
            data = canonical.dumps(metrics) + "\n"
            canonical.atomic_write_text(self.directory / filename, data)
            files["metrics"] = self._entry(filename, data)
        if timeseries is not None:
            filename = f"{name}.timeseries.json"
            data = canonical.dumps(timeseries) + "\n"
            canonical.atomic_write_text(self.directory / filename, data)
            files["timeseries"] = self._entry(
                filename, data, records=len(timeseries.get("t", ()))
            )
        self._runs.append({
            "index": index,
            "name": name,
            "controller": controller_name,
            "seed": seed,
            "files": files,
        })
        return name

    @staticmethod
    def _entry(filename: str, data: str,
               records: Optional[int] = None) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "path": filename,
            "sha256": hashlib.sha256(data.encode()).hexdigest(),
            "bytes": len(data.encode()),
        }
        if records is not None:
            entry["records"] = records
        return entry

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
