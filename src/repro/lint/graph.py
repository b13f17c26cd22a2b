"""Whole-program project model for cross-module lint rules.

The per-module rules (:mod:`repro.lint.rules`) see one AST at a time, so a
callback registered in one module but scheduled from another — the exact
case ROADMAP.md flagged as the open static-analysis gap — is invisible to
them.  This module parses the full tree **once** into a
:class:`ProjectModel`:

* a module table (dotted names, import aliases, ``# noqa`` maps);
* a symbol table of every class and function, with per-function *facts*
  (call sites, scheduling calls, wall-clock reads, RNG-stream events,
  broad exception handlers);
* a conservative call graph, built by resolving call sites against the
  symbol table (see :class:`_Resolver` for exactly which edges are and
  are not resolved — the conservatism contract is documented in
  DESIGN.md §12);
* two *scheduling-domain* closures over that graph: functions reachable
  from process-pool **worker** entry points, and functions reachable from
  scheduled **sim-callback** seeds.

The cross-module XMOD rules (:mod:`repro.lint.xrules`) are pure functions
of the model.  Building it costs one parse of every file (well under a
second for this tree), so it is rebuilt on every run and never stored.

Everything in the model is deterministically ordered: two builds over the
same tree serialize to byte-identical JSON (a unit test pins this down).
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import canonical
from repro.lint.base import (
    SCHEDULING_METHODS,
    WALLCLOCK_DATETIME_FACTORIES,
    WALLCLOCK_TIME_FUNCTIONS,
    callback_candidates,
)
from repro.lint.noqa import NoqaMap, noqa_map

#: Generator methods that *consume* randomness.  ``get``/``spawn`` are
#: deliberately absent: deriving a stream is domain-safe, drawing is not.
DRAW_METHODS = frozenset({
    "random", "uniform", "exponential", "integers", "normal", "lognormal",
    "standard_normal", "poisson", "gamma", "beta", "binomial", "choice",
    "shuffle", "permutation", "pareto", "geometric",
})

#: Type names that mark a value as an RNG stream family / generator.
STREAM_FAMILY_TYPES = frozenset({"RandomStreams"})
GENERATOR_TYPES = frozenset({"Generator", "np.random.Generator",
                             "numpy.random.Generator"})

#: Attribute-call names never resolved via the unique-method-name
#: fallback: they collide with builtin container/stdlib methods far too often.
AMBIGUOUS_METHOD_NAMES = frozenset({
    "get", "keys", "values", "items", "append", "add", "pop", "update",
    "sort", "sorted", "split", "join", "strip", "read", "write", "close",
    "copy", "clear", "extend", "insert", "remove", "discard", "count",
    "index", "format", "encode", "decode", "startswith", "endswith",
    "submit", "result", "done", "shutdown", "mkdir", "exists", "is_file",
    "is_dir", "read_text", "write_text", "read_bytes", "unlink", "glob",
    "rglob", "resolve", "relative_to", "with_suffix", "with_name", "open",
    "setdefault", "render", "run", "start", "stop", "send", "put",
    "total_seconds", "as_posix", "hexdigest", "to_json", "group", "match",
    "search", "sub", "findall", "dumps", "loads",
})

#: Pool-dispatch methods whose first function argument runs in a worker.
SUBMIT_METHODS = frozenset({"submit", "apply_async", "map_async"})

#: Module attribute that declares additional worker entry points, e.g.
#: ``__worker_entry_points__ = ("_compute",)`` in ``repro.experiments.
#: parallel`` — for entries that reach workers by fork rather than by a
#: syntactic ``.submit(...)`` (pre-installed hooks).
WORKER_DECL_NAME = "__worker_entry_points__"

#: Calls that install a hook executing inside worker processes.
WORKER_HOOK_INSTALLERS = frozenset({
    "repro.experiments.parallel.set_task_hook",
})


# ---------------------------------------------------------------------------
# fact records (all JSON-serializable via dataclasses.asdict)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CallSite:
    """One resolved-or-not call site inside a function body."""

    line: int
    col: int
    raw: str                      # the dotted text of the callee, best effort
    targets: Tuple[str, ...]      # resolved function qualnames (possibly empty)


@dataclass(frozen=True)
class ScheduleCall:
    """One call to a scheduling method (``schedule``/``schedule_at``/...)."""

    line: int
    col: int
    method: str
    receiver_kind: str            # "self" | "param" | "local" | "global" | "unknown"
    receiver_name: str
    callback_targets: Tuple[str, ...]   # resolved qualnames of the callback arg


@dataclass(frozen=True)
class StreamEvent:
    """One RNG-stream derivation or draw.

    ``kind`` is ``"derive"`` for ``family.get(<label>)`` and ``"draw"``
    for a consuming method; ``key`` identifies the entity — ``label:<L>``
    for constant labels (shared project-wide: ``RandomStreams.get``
    memoizes, so equal labels on one family alias the same generator) or
    ``attr:<Class>.<name>`` for generators stored on instances.
    """

    line: int
    col: int
    kind: str
    key: str
    detail: str


@dataclass(frozen=True)
class HandlerInfo:
    """One broad exception handler and the calls its try-body guards."""

    line: int
    col: int
    clause: str                   # "bare" | "Exception" | "BaseException"
    reraises: bool
    guarded_targets: Tuple[str, ...]   # resolved qualnames called in the try body


@dataclass
class FunctionInfo:
    """Everything the XMOD rules need to know about one function."""

    qualname: str
    module: str
    path: str
    line: int
    calls: List[CallSite] = field(default_factory=list)
    schedule_calls: List[ScheduleCall] = field(default_factory=list)
    wallclock: List[Tuple[int, int, str]] = field(default_factory=list)
    global_writes: Tuple[str, ...] = ()
    stream_events: List[StreamEvent] = field(default_factory=list)
    handlers: List[HandlerInfo] = field(default_factory=list)

    @property
    def callees(self) -> Tuple[str, ...]:
        """Sorted, deduplicated resolved call targets of this function."""
        out: Set[str] = set()
        for call in self.calls:
            out.update(call.targets)
        for handler in self.handlers:
            out.update(handler.guarded_targets)
        return tuple(sorted(out))


@dataclass
class ModuleRecord:
    """Per-module slice of the project model."""

    name: str
    path: str
    functions: List[str] = field(default_factory=list)     # qualnames
    worker_decl: Tuple[str, ...] = ()
    noqa: NoqaMap = field(default_factory=dict)


# ---------------------------------------------------------------------------
# raw per-module collection (pass 1: no cross-module knowledge)
# ---------------------------------------------------------------------------

def module_name_for(path: Path) -> str:
    """Dotted module name for a source file.

    Files under a ``src`` directory are named from the package root
    (``src/repro/sim/engine.py`` → ``repro.sim.engine``); anything else is
    named from its last path components so test trees and fixture
    mini-projects get stable, collision-free names.
    """
    parts = list(path.parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        # Keep at most the trailing 4 components for stability.
        parts = parts[-4:]
    if parts and parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts:
        parts = parts[:-1] + [Path(parts[-1]).stem]
    return ".".join(part for part in parts if part)


class _ClassRaw:
    """Raw facts about one class definition (pre-resolution)."""

    def __init__(self, name: str, module: str) -> None:
        self.name = name
        self.module = module
        self.qualname = f"{module}.{name}"
        self.bases: Tuple[str, ...] = ()
        self.methods: Dict[str, ast.AST] = {}
        #: attribute -> raw type names gathered from ``self.x = <param>``
        #: annotations, ``self.x = Class(...)`` births, and ``self.x: T``.
        self.attr_types: Dict[str, str] = {}
        #: attribute -> True when assigned a stream family / generator.
        self.stream_attrs: Dict[str, str] = {}   # attr -> "family" | "generator"

    @property
    def is_protocol(self) -> bool:
        return any(base.split(".")[-1] == "Protocol" for base in self.bases)


class _ModuleRaw:
    """Raw facts about one module (pre-resolution)."""

    def __init__(self, name: str, path: str, tree: ast.Module, source: str) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        self.noqa = noqa_map(source)
        self.import_aliases: Dict[str, str] = {}
        self.from_imports: Dict[str, str] = {}
        self.toplevel_names: Set[str] = set()
        self.worker_decl: Tuple[str, ...] = ()
        self.classes: Dict[str, _ClassRaw] = {}
        #: (owner _ClassRaw or None, function name, def node)
        self.function_defs: List[Tuple[Optional[_ClassRaw], str, ast.AST]] = []
        self._collect()

    def _collect(self) -> None:
        for node in self.tree.body:
            self._collect_stmt(node)

    def _collect_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.import_aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    self.import_aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.toplevel_names.add(node.name)
            self.function_defs.append((None, node.name, node))
        elif isinstance(node, ast.ClassDef):
            self.toplevel_names.add(node.name)
            cls = _ClassRaw(node.name, self.name)
            cls.bases = tuple(
                dotted(base) or "" for base in node.bases
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = item
                    self.function_defs.append((cls, item.name, item))
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    cls.attr_types.setdefault(
                        item.target.id, _annotation_name(item.annotation)
                    )
            self.classes[node.name] = cls
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    self.toplevel_names.add(target.id)
                    if target.id == WORKER_DECL_NAME:
                        self.worker_decl = _string_tuple(node.value)
        elif isinstance(node, (ast.If, ast.Try)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._collect_stmt(child)


def dotted(node: ast.AST) -> Optional[str]:
    """Attribute chain as a dotted string (None for anything fancier)."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _annotation_name(annotation: Optional[ast.AST]) -> str:
    """Best-effort flat name of a type annotation.

    ``Optional[LossModel]`` → ``LossModel``; unions and subscripts keep
    their first project-resolvable-looking name.  Strings pass through.
    """
    if annotation is None:
        return ""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.strip().split("[")[-1].rstrip("]").strip()
    if isinstance(annotation, ast.Subscript):
        inner = annotation.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[0]
        return _annotation_name(inner)
    name = dotted(annotation)
    return name or ""


def _string_tuple(value: Optional[ast.AST]) -> Tuple[str, ...]:
    """Constant tuple/list of strings, or () when it is anything else."""
    if isinstance(value, (ast.Tuple, ast.List)):
        out = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append(element.value)
        return tuple(out)
    return ()


# ---------------------------------------------------------------------------
# resolution (pass 2: whole-program symbol knowledge)
# ---------------------------------------------------------------------------

class _Resolver:
    """Conservative call resolution against the project symbol table.

    Resolved edges (in resolution order):

    1. bare names → same-module functions, then ``from``-imports;
    2. dotted names whose head is an imported module alias → that module's
       function/class;
    3. ``self.method()`` → the method on the enclosing class or its
       project-resolvable base classes;
    4. ``var.method()`` where ``var``'s class is known from a constructor
       assignment (``var = Class(...)``), a parameter annotation, or a
       ``self.attr`` load with a known attribute type;
    5. constructor calls → ``Class.__init__`` (and mark the value's type);
    6. protocol dispatch: a method resolved on a ``Protocol`` class fans
       out to every project class defining that method;
    7. unique-method fallback: an otherwise-unresolved ``x.m()`` resolves
       to ``C.m`` iff exactly one project class defines ``m`` and ``m`` is
       not a common container/stdlib name (:data:`AMBIGUOUS_METHOD_NAMES`).

    Everything else — calls through callables held in variables, dict
    dispatch, ``getattr`` — is left unresolved (an under-approximation;
    DESIGN.md §12 discusses the consequences).
    """

    def __init__(self, modules: Dict[str, _ModuleRaw]) -> None:
        self.modules = modules
        self.functions: Dict[str, Tuple[_ModuleRaw, Optional[_ClassRaw], ast.AST]] = {}
        self.classes: Dict[str, _ClassRaw] = {}
        self.method_index: Dict[str, List[str]] = {}
        for mod in modules.values():
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls
            for owner, name, node in mod.function_defs:
                qual = (
                    f"{owner.qualname}.{name}" if owner is not None
                    else f"{mod.name}.{name}"
                )
                self.functions[qual] = (mod, owner, node)
                if owner is not None:
                    self.method_index.setdefault(name, []).append(qual)

    # -- symbol lookup ------------------------------------------------

    def resolve_symbol(self, mod: _ModuleRaw, name: str) -> Optional[str]:
        """A bare name in ``mod`` → a project function/class qualname."""
        if f"{mod.name}.{name}" in self.functions:
            return f"{mod.name}.{name}"
        if name in mod.classes:
            return mod.classes[name].qualname
        target = mod.from_imports.get(name)
        if target is not None:
            if target in self.functions or target in self.classes:
                return target
            # ``from repro.x import y`` where y is a re-export: follow one
            # hop through the named module's own from-imports.
            head, _, leaf = target.rpartition(".")
            re_export = self.modules.get(head)
            if re_export is not None:
                onward = re_export.from_imports.get(leaf)
                if onward is not None and (
                    onward in self.functions or onward in self.classes
                ):
                    return onward
        return None

    def resolve_dotted(self, mod: _ModuleRaw, name: str) -> Optional[str]:
        """A dotted name in ``mod`` → a project function/class qualname."""
        parts = name.split(".")
        if len(parts) == 1:
            return self.resolve_symbol(mod, parts[0])
        head = mod.import_aliases.get(parts[0])
        if head is None:
            # ``from repro.experiments import cache`` binds a *module*;
            # ``cache.lookup(...)`` then resolves through it.
            via = mod.from_imports.get(parts[0])
            if via is not None and via in self.modules:
                head = via
        if head is not None:
            candidate = ".".join([head] + parts[1:])
            if candidate in self.functions or candidate in self.classes:
                return candidate
            # ``module.Class.method`` / ``alias.sub.fn``
            owner, _, leaf = candidate.rpartition(".")
            if owner in self.classes and leaf in self.classes[owner].methods:
                return candidate
        base = self.resolve_symbol(mod, parts[0])
        if base is not None and base in self.classes:
            cls_method = self.lookup_method(self.classes[base], parts[1])
            if cls_method is not None and len(parts) == 2:
                return cls_method
        return None

    def lookup_method(self, cls: _ClassRaw, method: str) -> Optional[str]:
        """Find ``method`` on ``cls`` or its project-resolvable bases."""
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return f"{current.qualname}.{method}"
            mod = self.modules.get(current.module)
            if mod is None:
                continue
            for base in current.bases:
                resolved = self.resolve_dotted(mod, base) if base else None
                if resolved is not None and resolved in self.classes:
                    queue.append(self.classes[resolved])
        return None

    def method_targets(self, cls_qual: str, method: str) -> Tuple[str, ...]:
        """Method resolution incl. protocol fan-out, as a sorted tuple."""
        cls = self.classes.get(cls_qual)
        if cls is None:
            return ()
        direct = self.lookup_method(cls, method)
        targets: Set[str] = set()
        if direct is not None:
            targets.add(direct)
        if cls.is_protocol:
            targets.update(
                qual for qual in self.method_index.get(method, ())
            )
        return tuple(sorted(targets))

    def unique_method(self, method: str) -> Tuple[str, ...]:
        """Unique-method-name fallback (see class docstring, rule 7)."""
        if method in AMBIGUOUS_METHOD_NAMES:
            return ()
        owners = self.method_index.get(method, ())
        if len(owners) == 1:
            return (owners[0],)
        return ()


# ---------------------------------------------------------------------------
# per-function fact extraction (pass 3)
# ---------------------------------------------------------------------------

class _FunctionScanner(ast.NodeVisitor):
    """Extract one function's facts, using the whole-program resolver.

    Nested functions and lambdas are scanned as part of their enclosing
    function: their calls are attributed to the parent (a deliberate
    over-approximation — the parent *creates* them, and they are almost
    always invoked on its behalf).
    """

    def __init__(
        self,
        resolver: _Resolver,
        mod: _ModuleRaw,
        owner: Optional[_ClassRaw],
        name: str,
        node: ast.AST,
        info: FunctionInfo,
    ) -> None:
        self.resolver = resolver
        self.mod = mod
        self.owner = owner
        self.node = node
        self.info = info
        args = node.args  # type: ignore[attr-defined]
        self.params: Dict[str, str] = {}
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            self.params[arg.arg] = _annotation_name(arg.annotation)
        if args.vararg is not None:
            self.params[args.vararg.arg] = ""
        if args.kwarg is not None:
            self.params[args.kwarg.arg] = ""
        self.locals: Set[str] = set()
        #: local var -> class qualname (one-level type environment)
        self.var_types: Dict[str, str] = {}
        #: local var -> stream entity key ("label:..." / "attr:...") or
        #: "family"/"generator" markers for untracked stream objects.
        self.var_streams: Dict[str, str] = {}
        self.global_names: Set[str] = set()
        self._try_depth = 0
        for param, annotation in self.params.items():
            resolved = self._resolve_type_name(annotation)
            if resolved is not None:
                self.var_types[param] = resolved
            if annotation.split(".")[-1] in STREAM_FAMILY_TYPES:
                self.var_streams[param] = "family"
            elif annotation.split(".")[-1] in GENERATOR_TYPES or (
                annotation in GENERATOR_TYPES
            ):
                self.var_streams[param] = "generator"

    # -- helpers ------------------------------------------------------

    def _resolve_type_name(self, annotation: str) -> Optional[str]:
        if not annotation:
            return None
        resolved = self.resolver.resolve_dotted(self.mod, annotation)
        if resolved is not None and resolved in self.resolver.classes:
            return resolved
        return None

    def _receiver_kind(self, base: str) -> str:
        if base == "self":
            return "self"
        if base in self.params:
            return "param"
        if base in self.locals:
            return "local"
        if (
            base in self.mod.toplevel_names
            or base in self.mod.import_aliases
            or base in self.mod.from_imports
        ):
            return "global"
        return "unknown"

    def _func_ref_targets(self, node: ast.AST) -> Tuple[str, ...]:
        """Resolve an expression used as a *function reference* argument."""
        name = dotted(node)
        if name is None:
            return ()
        parts = name.split(".")
        if parts[0] == "self" and self.owner is not None and len(parts) == 2:
            target = self.resolver.lookup_method(self.owner, parts[1])
            return (target,) if target else ()
        if len(parts) >= 2:
            var_type = self.var_types.get(parts[0])
            if var_type is not None and len(parts) == 2:
                return self.resolver.method_targets(var_type, parts[1])
        resolved = self.resolver.resolve_dotted(self.mod, name)
        if resolved is not None and resolved in self.resolver.functions:
            return (resolved,)
        if resolved is not None and resolved in self.resolver.classes:
            init = self.resolver.lookup_method(
                self.resolver.classes[resolved], "__init__"
            )
            return (init,) if init else (resolved,)
        return ()

    def _stream_entity_of(self, node: ast.AST) -> Optional[str]:
        """Entity key for an expression that holds an RNG generator."""
        if isinstance(node, ast.Name):
            entity = self.var_streams.get(node.id)
            if entity is not None and entity not in ("family", "generator"):
                return entity
            return None
        name = dotted(node)
        if name is None:
            return None
        parts = name.split(".")
        if parts[0] == "self" and self.owner is not None and len(parts) == 2:
            kind = self.owner.stream_attrs.get(parts[1])
            if kind == "generator":
                return f"attr:{self.owner.qualname}.{parts[1]}"
        return None

    def _is_stream_family(self, node: ast.AST) -> bool:
        name = dotted(node)
        if name is None:
            return False
        parts = name.split(".")
        if self.var_streams.get(parts[0]) == "family":
            return True
        if parts[0] == "self" and self.owner is not None and len(parts) == 2:
            return self.owner.stream_attrs.get(parts[1]) == "family"
        # Name-based last resort, documented: conventional family names.
        return parts[-1] in ("streams", "_streams")

    def _stream_birth(self, value: ast.AST) -> Optional[str]:
        """Classify an assigned value as a stream family/generator/entity."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        func_name = dotted(func)
        if func_name is not None:
            resolved = self.resolver.resolve_dotted(self.mod, func_name)
            leaf = func_name.split(".")[-1]
            if (resolved is not None and resolved.split(".")[-1] in
                    STREAM_FAMILY_TYPES) or leaf in STREAM_FAMILY_TYPES:
                return "family"
            if leaf == "default_rng":
                return "generator"
            if leaf == "spawn":
                return "family"
        if isinstance(func, ast.Attribute) and func.attr == "get":
            if self._is_stream_family(func.value):
                label = self._constant_label(value)
                if label is not None:
                    return f"label:{label}"
                return "generator"
        return None

    @staticmethod
    def _constant_label(call: ast.Call) -> Optional[str]:
        if call.args and isinstance(call.args[0], ast.Constant) and isinstance(
            call.args[0].value, str
        ):
            return call.args[0].value
        return None

    # -- statement visitors -------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.global_names.update(node.names)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._handle_assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        target = node.target
        if isinstance(target, ast.Attribute) and self.owner is not None:
            name = dotted(target)
            if name is not None and name.startswith("self.") and name.count(".") == 1:
                annotation = _annotation_name(node.annotation)
                if annotation:
                    self.owner.attr_types.setdefault(name.split(".")[1], annotation)
                    if annotation.split(".")[-1] in STREAM_FAMILY_TYPES:
                        self.owner.stream_attrs.setdefault(name.split(".")[1], "family")
                    elif annotation in GENERATOR_TYPES or (
                        annotation.split(".")[-1] in GENERATOR_TYPES
                    ):
                        self.owner.stream_attrs.setdefault(
                            name.split(".")[1], "generator"
                        )
        if node.value is not None:
            self._handle_assign([node.target], node.value)
        self.generic_visit(node)

    def _handle_assign(self, targets: List[ast.expr], value: ast.expr) -> None:
        birth = self._stream_birth(value)
        value_entity = self._stream_entity_of(value)
        value_name = dotted(value)
        for target in targets:
            if isinstance(target, ast.Name):
                self.locals.add(target.id)
                if target.id in self.global_names:
                    self.info.global_writes = tuple(
                        sorted(set(self.info.global_writes) | {target.id})
                    )
                if birth is not None:
                    self.var_streams[target.id] = birth
                elif value_entity is not None:
                    self.var_streams[target.id] = value_entity
                elif value_name is not None and self._is_stream_family(value):
                    self.var_streams[target.id] = "family"
                if isinstance(value, ast.Call):
                    ctor = dotted(value.func)
                    resolved = (
                        self.resolver.resolve_dotted(self.mod, ctor)
                        if ctor else None
                    )
                    if resolved is not None and resolved in self.resolver.classes:
                        self.var_types[target.id] = resolved
                elif value_name is not None:
                    # ``x = self.attr`` with a known attribute type.
                    parts = value_name.split(".")
                    if (
                        parts[0] == "self" and self.owner is not None
                        and len(parts) == 2
                    ):
                        resolved_type = self._resolve_type_name(
                            self.owner.attr_types.get(parts[1], "")
                        )
                        if resolved_type is not None:
                            self.var_types[target.id] = resolved_type
            elif isinstance(target, (ast.Tuple, ast.List)):
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        self.locals.add(leaf.id)
            elif isinstance(target, ast.Attribute):
                name = dotted(target)
                if name is None:
                    continue
                parts = name.split(".")
                if parts[0] == "self" and self.owner is not None and len(parts) == 2:
                    attr = parts[1]
                    if birth == "family" or (
                        value_name is not None
                        and self.var_streams.get(value_name) == "family"
                    ):
                        self.owner.stream_attrs.setdefault(attr, "family")
                    elif birth is not None or (
                        value_name is not None
                        and value_name in self.var_streams
                    ):
                        self.owner.stream_attrs.setdefault(attr, "generator")
                    ctor = dotted(value.func) if isinstance(value, ast.Call) else None
                    if ctor is not None:
                        resolved = self.resolver.resolve_dotted(self.mod, ctor)
                        if resolved is not None and resolved in self.resolver.classes:
                            self.owner.attr_types.setdefault(
                                attr, resolved.split(".")[-1]
                            )
                    elif value_name is not None and value_name in self.params:
                        annotation = self.params[value_name]
                        if annotation:
                            self.owner.attr_types.setdefault(attr, annotation)

    def visit_For(self, node: ast.For) -> None:
        for leaf in ast.walk(node.target):
            if isinstance(leaf, ast.Name):
                self.locals.add(leaf.id)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_Try(self, node: ast.Try) -> None:
        guarded: Set[str] = set()
        for stmt in node.body:
            for leaf in ast.walk(stmt):
                if isinstance(leaf, ast.Call):
                    guarded.update(self._call_targets(leaf))
        for handler in node.handlers:
            clause = self._broad_clause(handler.type)
            if clause is not None:
                reraises = any(
                    isinstance(leaf, ast.Raise) for leaf in ast.walk(handler)
                )
                self.info.handlers.append(HandlerInfo(
                    line=handler.lineno,
                    col=handler.col_offset,
                    clause=clause,
                    reraises=reraises,
                    guarded_targets=tuple(sorted(guarded)),
                ))
        self.generic_visit(node)

    @staticmethod
    def _broad_clause(node_type: Optional[ast.expr]) -> Optional[str]:
        if node_type is None:
            return "bare"
        if isinstance(node_type, ast.Name) and node_type.id in (
            "Exception", "BaseException",
        ):
            return node_type.id
        if isinstance(node_type, ast.Tuple):
            for element in node_type.elts:
                if isinstance(element, ast.Name) and element.id in (
                    "Exception", "BaseException",
                ):
                    return element.id
        return None

    # -- call visitor --------------------------------------------------

    def _call_targets(self, node: ast.Call) -> Tuple[str, ...]:
        """Resolve one call's targets (resolution rules 1–7)."""
        func = node.func
        name = dotted(func)
        if name is None:
            # ``container[i].method()``: annotations like List[OutputPort]
            # record the *element* type (``_annotation_name`` unwraps the
            # container), so the receiver's class is still known.
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Subscript
            ):
                base = dotted(func.value.value)
                element: Optional[str] = None
                if base is not None:
                    parts = base.split(".")
                    if len(parts) == 1:
                        element = self.var_types.get(parts[0])
                    elif parts[0] == "self" and self.owner is not None and (
                        len(parts) == 2
                    ):
                        element = self._resolve_type_name(
                            self.owner.attr_types.get(parts[1], "")
                        )
                if element is not None:
                    targets = self.resolver.method_targets(element, func.attr)
                    if targets:
                        return targets
            return ()
        parts = name.split(".")
        # self.method()
        if parts[0] == "self" and self.owner is not None:
            if len(parts) == 2:
                target = self.resolver.lookup_method(self.owner, parts[1])
                if target is not None:
                    return (target,)
            elif len(parts) == 3:
                # self.attr.method() with a known attribute type
                attr_type = self._resolve_type_name(
                    self.owner.attr_types.get(parts[1], "")
                )
                if attr_type is not None:
                    targets = self.resolver.method_targets(attr_type, parts[2])
                    if targets:
                        return targets
                return self.resolver.unique_method(parts[2])
            return ()
        # var.method() with a known local type
        if len(parts) == 2 and parts[0] in self.var_types:
            targets = self.resolver.method_targets(self.var_types[parts[0]], parts[1])
            if targets:
                return targets
        # module-qualified / bare-name resolution
        resolved = self.resolver.resolve_dotted(self.mod, name)
        if resolved is not None:
            if resolved in self.resolver.functions:
                return (resolved,)
            if resolved in self.resolver.classes:
                init = self.resolver.lookup_method(
                    self.resolver.classes[resolved], "__init__"
                )
                return (init,) if init else (resolved,)
        # attribute call fallback: unique method name
        if isinstance(func, ast.Attribute):
            return self.resolver.unique_method(parts[-1])
        return ()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = dotted(func)
        targets = self._call_targets(node)
        if name is not None or targets:
            raw = name
            if raw is None and isinstance(func, ast.Attribute):
                raw = f"<subscript>.{func.attr}"
            self.info.calls.append(CallSite(
                line=node.lineno, col=node.col_offset,
                raw=raw or "<unknown>", targets=targets,
            ))
        # scheduling calls
        if isinstance(func, ast.Attribute) and func.attr in SCHEDULING_METHODS:
            receiver = dotted(func.value)
            base = receiver.split(".")[0] if receiver else ""
            callback: Tuple[str, ...] = tuple(
                target
                for candidate in callback_candidates(node)
                for target in self._func_ref_targets(candidate)
            )
            self.info.schedule_calls.append(ScheduleCall(
                line=node.lineno, col=node.col_offset, method=func.attr,
                receiver_kind=self._receiver_kind(base) if base else "unknown",
                receiver_name=receiver or "",
                callback_targets=callback,
            ))
        # wall-clock reads
        self._check_wallclock(node, name)
        # stream derivations and draws
        self._check_streams(node, func)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call, name: Optional[str]) -> None:
        if name is None:
            return
        parts = name.split(".")
        head = self.mod.import_aliases.get(parts[0], "")
        if head == "time" and len(parts) == 2 and (
            parts[1] in WALLCLOCK_TIME_FUNCTIONS
        ):
            self.info.wallclock.append((node.lineno, node.col_offset, name))
        elif (
            head == "datetime" and len(parts) == 3
            and parts[1] in ("datetime", "date")
            and parts[2] in WALLCLOCK_DATETIME_FACTORIES
        ):
            self.info.wallclock.append((node.lineno, node.col_offset, name))
        elif len(parts) == 1:
            imported = self.mod.from_imports.get(parts[0], "")
            if imported.startswith("time.") and (
                imported.split(".")[-1] in WALLCLOCK_TIME_FUNCTIONS
            ):
                self.info.wallclock.append((node.lineno, node.col_offset, name))
        elif len(parts) == 2 and parts[1] in WALLCLOCK_DATETIME_FACTORIES:
            imported = self.mod.from_imports.get(parts[0], "")
            if imported in ("datetime.datetime", "datetime.date"):
                self.info.wallclock.append((node.lineno, node.col_offset, name))

    def _check_streams(self, node: ast.Call, func: ast.expr) -> None:
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "get" and self._is_stream_family(func.value):
            label = self._constant_label(node)
            if label is not None:
                self.info.stream_events.append(StreamEvent(
                    line=node.lineno, col=node.col_offset,
                    kind="derive", key=f"label:{label}", detail=label,
                ))
        elif func.attr in DRAW_METHODS:
            entity = self._stream_entity_of(func.value)
            if entity is None and isinstance(func.value, ast.Call):
                # chained: family.get("x").random()
                birth = self._stream_birth(func.value)
                if birth is not None and birth.startswith("label:"):
                    entity = birth
            if entity is not None:
                self.info.stream_events.append(StreamEvent(
                    line=node.lineno, col=node.col_offset,
                    kind="draw", key=entity, detail=func.attr,
                ))


# ---------------------------------------------------------------------------
# the project model
# ---------------------------------------------------------------------------

class ProjectModel:
    """Whole-program facts + derived closures, ready for the XMOD rules."""

    def __init__(
        self,
        modules: Dict[str, ModuleRecord],
        functions: Dict[str, FunctionInfo],
        worker_entries: Tuple[str, ...],
        callback_seeds: Tuple[str, ...],
    ) -> None:
        self.modules = modules
        self.functions = functions
        self.worker_entries = worker_entries
        self.callback_seeds = callback_seeds
        self._worker_reach: Optional[FrozenSet[str]] = None
        self._callback_reach: Optional[FrozenSet[str]] = None
        self._schedulers: Optional[FrozenSet[str]] = None
        self._parents: Optional[Dict[str, str]] = None

    # -- closures ------------------------------------------------------

    def _closure(self, seeds: Iterable[str]) -> FrozenSet[str]:
        seen: Set[str] = set()
        queue = sorted(set(seeds))
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.functions.get(current)
            if info is None:
                continue
            for callee in info.callees:
                if callee not in seen:
                    queue.append(callee)
        return frozenset(seen)

    @property
    def worker_reachable(self) -> FrozenSet[str]:
        """Functions reachable from process-pool worker entry points."""
        if self._worker_reach is None:
            self._worker_reach = self._closure(self.worker_entries)
        return self._worker_reach

    @property
    def callback_reachable(self) -> FrozenSet[str]:
        """Functions reachable from scheduled sim-callback seeds."""
        if self._callback_reach is None:
            self._callback_reach = self._closure(self.callback_seeds)
        return self._callback_reach

    @property
    def schedulers(self) -> FrozenSet[str]:
        """Functions whose callee closure contains a scheduling call."""
        if self._schedulers is None:
            direct = {
                qual for qual, info in self.functions.items()
                if info.schedule_calls
            }
            # Reverse propagation: callers of schedulers schedule too.
            callers: Dict[str, Set[str]] = {}
            for qual, info in self.functions.items():
                for callee in info.callees:
                    callers.setdefault(callee, set()).add(qual)
            result: Set[str] = set()
            queue = sorted(direct)
            while queue:
                current = queue.pop(0)
                if current in result:
                    continue
                result.add(current)
                for caller in sorted(callers.get(current, ())):
                    if caller not in result:
                        queue.append(caller)
            self._schedulers = frozenset(result)
        return self._schedulers

    def domain_of(self, qualname: str) -> str:
        """Primary scheduling domain: ``sim`` > ``worker`` > ``harness``."""
        if qualname in self.callback_reachable:
            return "sim"
        if qualname in self.worker_reachable:
            return "worker"
        return "harness"

    def entry_chain(self, qualname: str) -> str:
        """A deterministic shortest entry→function path, for messages."""
        if self._parents is None:
            parents: Dict[str, str] = {}
            queue = sorted(set(self.worker_entries))
            frontier = list(queue)
            visited = set(queue)
            while frontier:
                nxt: List[str] = []
                for current in frontier:
                    info = self.functions.get(current)
                    if info is None:
                        continue
                    for callee in info.callees:
                        if callee not in visited:
                            visited.add(callee)
                            parents[callee] = current
                            nxt.append(callee)
                frontier = sorted(nxt)
            self._parents = parents
        chain = [qualname]
        while chain[-1] in self._parents:
            chain.append(self._parents[chain[-1]])
        return " <- ".join(chain)

    # -- serialization -------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict; keys and lists are deterministically ordered."""
        return {
            "worker_entries": sorted(self.worker_entries),
            "callback_seeds": sorted(self.callback_seeds),
            "modules": {
                name: {
                    "name": record.name,
                    "path": record.path,
                    "functions": sorted(record.functions),
                    "worker_decl": sorted(record.worker_decl),
                    "noqa": {
                        str(line): (sorted(codes) if codes is not None else None)
                        for line, codes in sorted(record.noqa.items())
                    },
                }
                for name, record in sorted(self.modules.items())
            },
            "functions": {
                qual: asdict(info)
                for qual, info in sorted(self.functions.items())
            },
        }

    def to_json(self) -> str:
        """Canonical JSON of the model (byte-identical across builds)."""
        return canonical.dumps(self.to_payload())


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def build_model(files: Sequence[Path]) -> ProjectModel:
    """Parse ``files`` and assemble the whole-program model."""
    raw_modules: Dict[str, _ModuleRaw] = {}
    for path in sorted(set(files), key=lambda p: p.as_posix()):
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError):
            continue  # the per-module runner reports PARSE findings
        name = module_name_for(path)
        if name in raw_modules:
            # Collision (two fixture trees with the same package name):
            # disambiguate with the path so neither is silently dropped.
            name = f"{name}@{path.as_posix()}"
        raw_modules[name] = _ModuleRaw(name, path.as_posix(), tree, source)

    resolver = _Resolver(raw_modules)

    functions: Dict[str, FunctionInfo] = {}
    modules: Dict[str, ModuleRecord] = {}
    worker_entries: Set[str] = set()
    callback_seeds: Set[str] = set()

    for name, mod in sorted(raw_modules.items()):
        record = ModuleRecord(name=name, path=mod.path, noqa=mod.noqa,
                              worker_decl=mod.worker_decl)
        for decl in mod.worker_decl:
            worker_entries.add(f"{name}.{decl}")
        for owner, fn_name, node in mod.function_defs:
            qual = (
                f"{owner.qualname}.{fn_name}" if owner is not None
                else f"{name}.{fn_name}"
            )
            info = FunctionInfo(
                qualname=qual, module=name, path=mod.path,
                line=getattr(node, "lineno", 1),
            )
            scanner = _FunctionScanner(resolver, mod, owner, fn_name, node, info)
            for stmt in node.body:  # type: ignore[attr-defined]
                scanner.visit(stmt)
            functions[qual] = info
            record.functions.append(qual)
        modules[name] = record

    # Seeds need the full fact set, so collect them in a second sweep.
    for qual, info in sorted(functions.items()):
        for sched in info.schedule_calls:
            callback_seeds.update(sched.callback_targets)
        for call in info.calls:
            # pool.submit(fn, ...) / executor.map_async(fn, ...)
            if call.raw.split(".")[-1] in SUBMIT_METHODS:
                worker_entries.update(
                    _first_ref_arg(raw_modules, functions, qual, call)
                )
            # set_task_hook(fn): the hook body runs inside workers
            if any(t in WORKER_HOOK_INSTALLERS for t in call.targets):
                worker_entries.update(
                    _first_ref_arg(raw_modules, functions, qual, call)
                )

    return ProjectModel(
        modules=modules,
        functions=functions,
        worker_entries=tuple(sorted(worker_entries)),
        callback_seeds=tuple(sorted(callback_seeds)),
    )


def _first_ref_arg(
    raw_modules: Dict[str, _ModuleRaw],
    functions: Dict[str, FunctionInfo],
    caller: str,
    call: CallSite,
) -> Set[str]:
    """Resolve the first argument of a submit-style call to function refs.

    The scanner does not retain argument ASTs, so re-derive from the
    caller's recorded calls: a submit at (line, col) whose first argument
    was a resolvable function shows up in the *caller's module* as a
    same-module or imported function whose reference was taken.  We
    re-parse the statement cheaply via the module AST kept in
    ``raw_modules``.
    """
    info = functions.get(caller)
    if info is None:
        return set()
    mod = raw_modules.get(info.module)
    if mod is None:
        return set()
    refs: Set[str] = set()
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        if node.lineno != call.line or node.col_offset != call.col:
            continue
        if not node.args:
            continue
        name = dotted(node.args[0])
        if name is None:
            continue
        resolver = _Resolver({mod.name: mod, **{
            k: v for k, v in raw_modules.items() if k != mod.name
        }})
        resolved = resolver.resolve_dotted(mod, name)
        if resolved is not None and resolved in resolver.functions:
            refs.add(resolved)
        elif "." not in name and f"{mod.name}.{name}" in functions:
            refs.add(f"{mod.name}.{name}")
    return refs
