"""On-disk cache of finished scenario runs.

Several of the paper's figures reuse the same (scenario, design, seed)
points — Figure 9 re-reports fixed-epsilon points of Figure 8, Figures 4–7
share their MBAC reference, and so on.  Simulations are expensive, so every
sweep consults this cache: a content-addressed store of entry files, one
per run, under a cache directory (``results/cache/`` by convention).  An
entry is a canonical JSON header line followed by the run's trace lines
verbatim, so a warm replay never unescapes a trace.  Keys are
a SHA-256 over the canonically serialized config + controller spec + a
fingerprint of the sources a run can execute, so a code change invalidates
every entry and a stale cache can never contaminate a new result.  Reads
are corruption-tolerant: an unreadable or truncated file is evicted and the
run recomputed, never crashed on.

The cache is off unless a directory is configured with ``set_cache_dir``
(the CLI's ``--cache-dir``/``--no-cache`` flags call it).  With it off a
finished run is kept nowhere: the process holds a result only while its
caller does.

See DESIGN.md §9 for the determinism argument and the invalidation rules.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro import canonical
from repro.experiments.runner import (
    ControllerSpec,
    ScenarioConfig,
    ScenarioResult,
)

#: Bump when the result payload changes; it is key material, so a bump
#: moves every key.  v4: ScenarioResult grew the ``timeseries`` payload
#: and the trace envelope moved to v2 (recorder field).  The entry layout
#: (header line + trace lines) changed without a bump: an entry in the
#: older single-document layout has no ``trace_lines`` in its header, and
#: an older reader fails on the trace lines after the header ("Extra
#: data"), so each side evicts the other's entries rather than misread them.
SCHEMA_VERSION = 4

#: Cache directory; ``None`` disables the cache entirely.
_disk_dir: Optional[Path] = None

_code_fingerprint_cached: Optional[str] = None

#: Field names a disk entry must carry to rebuild a :class:`ScenarioResult`.
_RESULT_FIELDS = tuple(f.name for f in fields(ScenarioResult))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def set_cache_dir(path: Optional[str]) -> None:
    """Point the cache at ``path``, or disable it with ``None``.

    The directory is created lazily on the first store.
    """
    global _disk_dir
    _disk_dir = None if path is None else Path(path)


def get_cache_dir() -> Optional[str]:
    """The cache directory, or ``None`` when the cache is disabled."""
    return None if _disk_dir is None else str(_disk_dir)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

#: Exact types :func:`_canonical` passes through unchanged.
_LEAF = frozenset({str, int, float, bool, type(None)})

#: The canonicaliser of every non-leaf type seen so far, built by
#: :func:`_plan` on the type's first value.  Keyed by type, never by value.
_PLANS: Dict[type, Callable[[Any], Any]] = {}


def _canonical(value: Any) -> Any:
    """JSON-ready canonical form of configs/specs for key material.

    Dataclasses become name-tagged field dicts (recursively), enums become
    ``[ClassName, value]`` pairs, tuples become lists.  The form must be
    stable across processes and Python hash seeds — no ``hash()``, no
    set/dict iteration order (dicts are sorted).

    Leaves outnumber containers four to one in a ``(config, design)``
    pair, so the exact leaf types are tested first; ``type(...) in`` (not
    ``isinstance``) keeps a ``str``-mixin Enum on the enum branch.  Every
    other value runs its type's plan (:func:`_plan`).
    """
    kind = type(value)
    if kind in _LEAF:
        return value
    plan = _PLANS.get(kind)
    if plan is None:
        plan = _PLANS[kind] = _plan(kind)
    return plan(value)


def _plan(kind: type) -> Callable[[Any], Any]:
    """How :func:`_canonical` turns a value of the non-leaf type ``kind``.

    Which form a value takes depends on its type alone, so the tests run
    once per type, in the order that fixes the form: a dataclass instance,
    an Enum before its ``str``/``int`` mixin, list/tuple, dict, a subclass
    of a leaf type, else ``repr``.  A class object passed as a value is
    not a dataclass instance: its type is ``type`` (or a metaclass), so
    it takes ``repr``.  A dataclass's plan holds its tag and field names,
    so ``fields()`` runs once per class, not once per value.
    """
    if is_dataclass(kind):
        tag = kind.__name__
        names = tuple(f.name for f in fields(kind))

        def dataclass_form(value: Any) -> Dict[str, Any]:
            out: Dict[str, Any] = {"__dataclass__": tag}
            for name in names:
                out[name] = _canonical(getattr(value, name))
            return out
        return dataclass_form
    if issubclass(kind, Enum):
        return lambda value: [kind.__name__, value.value]
    if issubclass(kind, (list, tuple)):
        return lambda value: [_canonical(v) for v in value]
    if issubclass(kind, dict):
        return lambda value: {
            str(k): _canonical(v) for k, v in sorted(value.items())
        }
    if issubclass(kind, (str, int, float, bool)):
        return lambda value: value
    return repr


#: Module names whose import closure defines the code fingerprint: the
#: runner executes the simulation, the scenario catalog builds the configs.
_FINGERPRINT_ROOTS = ("repro.experiments.runner", "repro.experiments.scenarios")


def _module_path(name: str, root: Path) -> Optional[Path]:
    """Source file for dotted module ``name`` under the ``repro`` root.

    Returns ``None`` for names that are not modules (e.g. a class imported
    via ``from repro.net.packet import Packet`` resolves ``repro.net.packet``
    but not ``repro.net.packet.Packet``).
    """
    relative = Path(*name.split(".")[1:])  # drop the leading "repro"
    candidate = root / relative.with_suffix(".py")
    if candidate.is_file():
        return candidate
    candidate = root / relative / "__init__.py"
    if candidate.is_file():
        return candidate
    return None


#: An import statement at any indentation (function-local imports break
#: cycles, so they count): group 1 is the module of ``from repro... import``
#: and group 2 its name list, parenthesised or running to the end of the
#: line; group 3 is the name list of a plain ``import``.  Backslash
#: continuations are part of a list.
_IMPORT_RE = re.compile(
    r"^[ \t]*(?:from[ \t]+(repro(?:\.\w+)*)[ \t]+import[ \t]*"
    r"(\((?:[^)#]|#[^\n]*)*\)|(?:[^\n\\]|\\\n)*)"
    r"|import[ \t]+((?:[^\n\\]|\\\n)*))",
    re.MULTILINE,
)
_COMMENT_RE = re.compile(r"#[^\n]*")


def _import_names(names: str) -> list[str]:
    """The imported names of one list, comments and ``as`` aliases dropped."""
    names = _COMMENT_RE.sub("", names).replace("\\\n", " ").strip("() \t\n")
    return [item.split()[0] for item in names.split(",") if item.strip()]


def _module_imports(path: Path) -> set[str]:
    """Every ``repro``-package module name imported anywhere in ``path``.

    Scans the import statements with one regular expression rather than
    parsing: the first cache key of every process pays for this over
    the whole closure.  Both statement forms are handled: ``import
    repro.x.y`` and ``from repro.x import y`` — the latter adds
    ``repro.x`` *and* ``repro.x.y``, since ``y`` may be a submodule
    rather than an attribute (non-module names are discarded at
    resolution time).
    """
    names: set[str] = set()
    for module, imported, plain in _IMPORT_RE.findall(path.read_text()):
        if module:
            names.add(module)
            names.update(f"{module}.{name}" for name in _import_names(imported))
        else:
            names.update(
                name for name in _import_names(plain)
                if name == "repro" or name.startswith("repro.")
            )
    return names


def fingerprint_files() -> Tuple[str, ...]:
    """Relative paths of the sources the fingerprint covers, sorted.

    The transitive ``repro.*`` import closure of the scenario runner and
    the scenario catalog — i.e. exactly the code that can influence a
    simulation result.  Tooling-only packages (``repro.lint``) are
    unreachable from the runner and therefore excluded: editing a lint
    rule does not invalidate a warm result cache.
    """
    root = Path(__file__).resolve().parent.parent
    seen: Dict[str, Path] = {}
    queue = ["repro"] + list(_FINGERPRINT_ROOTS)
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        path = _module_path(name, root) if name != "repro" else root / "__init__.py"
        if path is None or not path.is_file():
            continue
        seen[name] = path
        queue.extend(_module_imports(path) - seen.keys())
    return tuple(sorted(str(p.relative_to(root.parent)) for p in seen.values()))


def code_fingerprint() -> str:
    """SHA-256 over the sources a scenario run can execute (path + contents).

    Part of every disk key: any change to code reachable from the runner —
    simulator, traffic models, controllers, experiment plumbing — yields
    new keys, so results computed by old code are never served for new
    code.  The hash covers only the runner's import closure (see
    :func:`fingerprint_files`), so purely tooling changes (lint rules)
    keep a warm cache warm.  Computed once per process.
    """
    global _code_fingerprint_cached
    if _code_fingerprint_cached is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for relative in fingerprint_files():
            digest.update(relative.encode())
            digest.update(b"\0")
            digest.update((root.parent / relative).read_bytes())
            digest.update(b"\0")
        _code_fingerprint_cached = digest.hexdigest()
    return _code_fingerprint_cached


def run_key(config: ScenarioConfig, design: ControllerSpec = None) -> str:
    """Stable content hash identifying one run in the cache.

    Covers the full scenario config (seed included), the controller spec,
    the payload schema version, and the package code fingerprint.  Stable
    across processes, machines, and ``PYTHONHASHSEED`` values.
    """
    material = canonical.dumps({
        "config": _canonical(config),
        "design": _canonical(design),
        "schema": SCHEMA_VERSION,
        "code": code_fingerprint(),
    })
    return hashlib.sha256(material.encode()).hexdigest()


# ---------------------------------------------------------------------------
# public cache API
# ---------------------------------------------------------------------------

def _disk_path(config: ScenarioConfig, design: ControllerSpec) -> Optional[str]:
    """Entry file of one run, ``<dir>/<run_key>.json`` as one string;
    ``None`` with the cache off.

    The directory is tested first: the key needs the code fingerprint, a
    regex scan of the source tree's ``repro`` imports that a run without a
    cache never needs.  A string, not a :class:`Path`: a warm hit opens it
    once, and joining a ``Path`` costs as much as the read.
    """
    if _disk_dir is None:
        return None
    return f"{_disk_dir}/{run_key(config, design)}.json"


def lookup(config: ScenarioConfig, design: ControllerSpec = None) -> Tuple[Optional[ScenarioResult], str]:
    """Fetch a run: ``(result, "disk")`` on a hit, ``(None, "miss")`` else.

    Always a miss with the cache off.  A corrupt, truncated, or
    schema-mismatched file is deleted and reported as a miss — a bad cache
    entry costs one recomputation, never a crash.  The entry is read as
    bytes in one call and decoded as ASCII (:func:`store` writes nothing
    else, so a stray byte is corruption); only the header line is parsed,
    the trace is the rest of the file's lines, and a line count that
    disagrees with the header's ``trace_lines`` (an entry cut short)
    counts as corrupt.
    """
    path = _disk_path(config, design)
    if path is None:
        return None, "miss"
    try:
        with open(path, "rb") as entry:
            lines = entry.read().decode("ascii").split("\n")
        payload = json.loads(lines[0])
        if payload["schema"] != SCHEMA_VERSION:
            raise ValueError(f"schema {payload['schema']!r}")
        count = payload["trace_lines"]
        # Every line ends in a newline: a cut inside the last line leaves
        # a non-empty tail, a cut between lines a short count.
        if lines[-1] or len(lines) - 2 != (count or 0):
            raise ValueError(f"{len(lines) - 2} trace lines, header says {count!r}")
        raw = payload["result"]
        raw["trace"] = None if count is None else lines[1:-1]
        return ScenarioResult(**{name: raw[name] for name in _RESULT_FIELDS}), "disk"
    except FileNotFoundError:
        return None, "miss"
    except (OSError, ValueError, KeyError, TypeError):
        try:
            os.unlink(path)
        except OSError:
            pass
        return None, "miss"


def store(config: ScenarioConfig, design: ControllerSpec, result: ScenarioResult) -> None:
    """Write one result atomically (temp file + rename); no-op with the cache off.

    Atomicity means a concurrent reader — another worker of a parallel
    sweep, or a second pytest session — sees either the complete entry or
    none; the corruption-tolerant :func:`lookup` handles everything else.

    Line 1 is the canonical JSON header — the result without its trace,
    plus ``trace_lines``, the trace's line count (``None`` when untraced)
    — and the trace's canonical lines follow verbatim, each ending in a
    newline.  Canonical JSON escapes control characters and every
    non-ASCII character, so a trace line never holds a raw newline and
    the whole entry is ASCII.
    """
    name = _disk_path(config, design)
    if name is None:
        return
    path = Path(name)
    raw = asdict(result)
    trace = raw.pop("trace")
    payload = {
        "schema": SCHEMA_VERSION,
        "key": path.stem,
        "controller": result.controller_name,
        "seed": result.seed,
        "result": raw,
        "trace_lines": None if trace is None else len(trace),
    }
    text = "\n".join([canonical.dumps(payload), *(trace or ()), ""])
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        canonical.atomic_write_text(path, text)
    except OSError:
        # A read-only or full cache directory degrades to compute-always.
        pass


def disk_cache_size() -> int:
    """Number of entries in the cache directory (0 when disabled)."""
    if _disk_dir is None or not _disk_dir.is_dir():
        return 0
    return sum(1 for _ in _disk_dir.glob("*.json"))


def clear_cache(disk: bool = True) -> None:
    """Empty the cache directory; ``disk=False`` is accepted and does nothing.

    Entries go, and so do the temp files of writers killed before their
    rename (``<key>.json.tmp<pid>``, see :func:`canonical.atomic_write_text`).
    """
    if disk and _disk_dir is not None and _disk_dir.is_dir():
        for path in [*_disk_dir.glob("*.json"), *_disk_dir.glob("*.json.tmp*")]:
            try:
                path.unlink()
            except OSError:
                pass
