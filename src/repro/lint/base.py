"""Core abstractions of the determinism lint framework.

A rule is a :class:`Checker` subclass: an :class:`ast.NodeVisitor` carrying
a rule ``code`` (e.g. ``DET001``), a one-line ``message``, and a ``hint``
that tells the author how to fix or legitimately suppress the finding.
Rules self-register via the :func:`register` decorator; the runner
instantiates one checker per (rule, module) pair so rules can keep
per-module state (import aliases, loop nesting) without cross-talk.

The framework is deliberately tiny — no plugins, no configuration files —
because its job is narrow: keep the seeded discrete-event simulator
bit-for-bit reproducible as the codebase grows.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type

#: Method names that put an event on the calendar; a module calling any of
#: these is considered a scheduling module (see ``ModuleContext``).
SCHEDULING_METHODS = frozenset({"schedule", "schedule_at", "call", "call_chained",
                                "every"})

#: ``Simulator.lane(delay)``: where a constant-delay lane's delay is given
#: (and validated, once).  The ``Lane`` it returns schedules through
#: ``lane.call(fn, arg)`` and starts trains through ``lane.every(fn, arg)``
#: — callback first, exactly one argument, no delay.
LANE_FACTORY = "lane"

#: Wall-clock reading functions of the ``time`` module (DET002).
WALLCLOCK_TIME_FUNCTIONS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns",
})

#: ``datetime``/``date`` factory methods that read the wall clock.
WALLCLOCK_DATETIME_FACTORIES = frozenset({"now", "utcnow", "today"})

#: Path substrings where wall-clock access is sanctioned (the timing
#: harnesses and the sweep runner that times its tasks): DET002 does not
#: run there.
WALLCLOCK_EXEMPT_PATH_PARTS: Tuple[str, ...] = (
    "bench/",
    "benchmarks/",
    "experiments/parallel",
)


def callback_candidates(call: ast.Call) -> List[ast.expr]:
    """Positional arguments of a scheduling call that may be its callback.

    The simulator's methods take ``(delay, fn, *args)`` (``call_chained``
    exactly ``(delay, fn, arg)``) and ``Lane.call`` / ``Lane.every`` take
    ``(fn, arg)``.  ``Simulator.call`` and ``Lane.call`` are both spelled
    ``.call(`` and the receiver's type is not known syntactically, so for
    ``call`` either of the first two arguments may be the callback; SIM001
    keeps whichever is a lambda (a delay expression is not).
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr == "call":
            return call.args[:2]
        if func.attr == "every":
            return call.args[:1]
    return call.args[1:2]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (the ``--format=json`` schema)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        """One-line human-readable form, editor-clickable."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class ModuleContext:
    """Everything a checker may want to know about the module under analysis."""

    __slots__ = ("path", "source", "tree", "_schedules_events")

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self._schedules_events: Optional[bool] = None

    @property
    def schedules_events(self) -> bool:
        """True when the module calls any event-scheduling method.

        Rules whose failure mode is "iteration order leaks into the event
        heap" only matter in modules that actually put events on the
        calendar; this property lets them scope themselves accordingly.
        """
        if self._schedules_events is None:
            self._schedules_events = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCHEDULING_METHODS
                for node in ast.walk(self.tree)
            )
        return self._schedules_events


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render an attribute chain like ``np.random.random`` as a string.

    Returns None for anything that is not a plain Name/Attribute chain
    (subscripts, calls, etc. in the middle of the chain).
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


class Checker(ast.NodeVisitor):
    """Base class for one lint rule.

    Subclasses define the class attributes below, implement ``visit_*``
    methods, and call :meth:`report` for each violation.

    Attributes
    ----------
    code:
        Stable rule identifier (``DET001`` ...), used by ``--select``,
        ``--ignore``, and ``# noqa:`` comments.
    message:
        One-line description of the violation.
    hint:
        How to fix it — or how to suppress it when the usage is legitimate.
    exempt_path_parts:
        Path substrings (posix separators) where the rule does not apply,
        e.g. ``("benchmarks/",)`` for wall-clock rules.
    only_path_parts:
        When non-empty, the rule *only* runs on paths containing one of
        these substrings, e.g. ``("src/",)`` for library-only rules.
        Exemptions still apply on top.
    """

    code: ClassVar[str] = ""
    message: ClassVar[str] = ""
    hint: ClassVar[str] = ""
    exempt_path_parts: ClassVar[Tuple[str, ...]] = ()
    only_path_parts: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, context: ModuleContext) -> None:
        self.context = context
        self.findings: List[Finding] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether this rule runs on the given (display) path at all."""
        normalized = path.replace("\\", "/")
        if cls.only_path_parts and not any(
            part in normalized for part in cls.only_path_parts
        ):
            return False
        return not any(part in normalized for part in cls.exempt_path_parts)

    def report(self, node: ast.AST, detail: Optional[str] = None) -> None:
        """Record a finding anchored at ``node``."""
        message = self.message if detail is None else f"{self.message} ({detail})"
        self.findings.append(
            Finding(
                path=self.context.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=self.code,
                message=message,
                hint=self.hint,
            )
        )

    def run(self) -> List[Finding]:
        """Walk the module and return this rule's findings."""
        self.visit(self.context.tree)
        return self.findings


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code:
        raise ValueError(f"{cls.__name__} has no rule code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code!r}")
    _REGISTRY[cls.code] = cls
    return cls


def all_checkers() -> Dict[str, Type[Checker]]:
    """Registered rules, keyed by code (a copy; mutation-safe)."""
    return dict(_REGISTRY)
