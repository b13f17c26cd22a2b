"""The simulator-invariant rule set.

Every rule here defends one concrete way a seeded discrete-event simulation
loses bit-for-bit reproducibility (or silently corrupts its event heap).
The codes group by failure class:

* ``DET``  — nondeterminism sources (ambient RNG, wall clock, unordered
  iteration);
* ``SIM``  — misuse of the :class:`~repro.sim.engine.Simulator` scheduling
  API;
* ``FLT``  — float-equality traps on simulation time;
* ``ERR``  — error handling that swallows callback failures.

See the "Determinism rules" section of DESIGN.md for the rationale and the
legitimate-suppression policy of each rule.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.base import (
    LANE_FACTORY,
    SCHEDULING_METHODS,
    WALLCLOCK_DATETIME_FACTORIES,
    WALLCLOCK_EXEMPT_PATH_PARTS,
    WALLCLOCK_TIME_FUNCTIONS,
    Checker,
    ModuleContext,
    callback_candidates,
    dotted_name,
    register,
)

#: numpy.random attributes that are deterministic constructors/types, not
#: draws from the hidden global state.
_ALLOWED_NP_RANDOM = frozenset({
    "Generator", "BitGenerator", "RandomState", "SeedSequence",
    "default_rng", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


class _AliasTrackingChecker(Checker):
    """Shared import-alias bookkeeping for module-reference rules."""

    #: canonical module names this rule cares about, e.g. {"time"}.
    tracked_modules: frozenset = frozenset()

    def __init__(self, context: ModuleContext) -> None:
        super().__init__(context)
        # local alias -> canonical module name ("np" -> "numpy")
        self.module_aliases: dict = {}

    def _track_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self.tracked_modules:
                self.module_aliases[alias.asname or alias.name] = alias.name


@register
class GlobalRandomChecker(_AliasTrackingChecker):
    """DET001: ambient random state instead of seeded ``RandomStreams``.

    The global ``random`` module and the module-level ``numpy.random``
    functions draw from hidden process-wide state: any new caller anywhere
    perturbs every stream after it, so two runs of "the same" seed diverge
    the moment unrelated code is added.  All randomness must come from
    :class:`repro.sim.rng.RandomStreams` (or an explicitly passed
    ``numpy.random.Generator``).
    """

    code = "DET001"
    message = "use of ambient random state instead of RandomStreams"
    hint = (
        "draw from a repro.sim.rng.RandomStreams stream (or a Generator "
        "passed in explicitly); suppress with '# noqa: DET001' only in "
        "code that never influences a simulation"
    )
    tracked_modules = frozenset({"numpy"})

    def visit_Import(self, node: ast.Import) -> None:
        self._track_import(node)
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(node, f"import {alias.name}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "random":
            self.report(node, "from random import ...")
        elif module == "numpy.random":
            for alias in node.names:
                if alias.name not in _ALLOWED_NP_RANDOM:
                    self.report(node, f"from numpy.random import {alias.name}")
                else:
                    # e.g. ``from numpy.random import default_rng`` — fine.
                    pass
        elif module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    # ``from numpy import random as npr``: track the alias so
                    # ``npr.random()`` below is still caught.
                    self.module_aliases[alias.asname or alias.name] = "numpy.random"
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = dotted_name(node)
        if name is not None:
            parts = name.split(".")
            head = self.module_aliases.get(parts[0])
            if (
                head == "numpy"
                and len(parts) >= 3
                and parts[1] == "random"
                and parts[2] not in _ALLOWED_NP_RANDOM
            ):
                self.report(node, name)
            elif (
                head == "numpy.random"
                and len(parts) >= 2
                and parts[1] not in _ALLOWED_NP_RANDOM
            ):
                self.report(node, name)
        self.generic_visit(node)


@register
class WallClockChecker(_AliasTrackingChecker):
    """DET002: wall-clock reads inside simulation code.

    Simulation time is ``sim.now``; real time differs on every run and
    every machine.  Benchmarks and the parallel sweep runner legitimately
    measure wall time, so those paths are exempt.
    """

    code = "DET002"
    message = "wall-clock access in simulation code"
    hint = (
        "use sim.now for simulation time; wall-clock timing belongs in "
        "benchmarks/ or the parallel sweep runner"
    )
    tracked_modules = frozenset({"time", "datetime"})
    exempt_path_parts = WALLCLOCK_EXEMPT_PATH_PARTS

    def __init__(self, context: ModuleContext) -> None:
        super().__init__(context)
        # names bound to the datetime/date *classes* via ``from datetime
        # import datetime`` — their .now()/.today() are wall-clock reads.
        self._datetime_classes: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        self._track_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "time":
            for alias in node.names:
                if alias.name in WALLCLOCK_TIME_FUNCTIONS:
                    self.report(node, f"from time import {alias.name}")
        elif module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._datetime_classes.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            parts = name.split(".")
            head = self.module_aliases.get(parts[0])
            if (
                head == "time"
                and len(parts) == 2
                and parts[1] in WALLCLOCK_TIME_FUNCTIONS
            ):
                self.report(node, f"{name}()")
            elif (
                head == "datetime"
                and len(parts) == 3
                and parts[1] in ("datetime", "date")
                and parts[2] in WALLCLOCK_DATETIME_FACTORIES
            ):
                self.report(node, f"{name}()")
            elif (
                parts[0] in self._datetime_classes
                and len(parts) == 2
                and parts[1] in WALLCLOCK_DATETIME_FACTORIES
            ):
                self.report(node, f"{name}()")
        self.generic_visit(node)


@register
class UnorderedIterationChecker(Checker):
    """DET003: set/``dict.keys()`` iteration in event-scheduling modules.

    In a module that schedules events, iteration order reaches the event
    heap through the tie-breaking ``seq`` counter: two orderings of the
    same schedule calls produce different (both "valid") event interleavings.
    Set iteration order depends on the process's hash salt for str keys;
    ``dict.keys()`` order depends on insertion history, which is itself
    often seed- or order-dependent.  Iterate ``sorted(...)`` instead.

    The rule only fires in modules that call a scheduling method
    (``schedule``/``schedule_at``/``call``) — elsewhere iteration order
    cannot leak into the calendar.
    """

    code = "DET003"
    message = "iteration over an unordered collection in a scheduling module"
    hint = (
        "iterate sorted(...) (or a list kept in insertion order) so the "
        "event heap's tie-break order is reproducible"
    )

    def run(self) -> List:
        if not self.context.schedules_events:
            return self.findings
        return super().run()

    @staticmethod
    def _unordered_reason(expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Set):
            return "set literal"
        if isinstance(expr, ast.SetComp):
            return "set comprehension"
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"{func.id}(...)"
            if isinstance(func, ast.Attribute) and func.attr == "keys":
                return ".keys()"
        return None

    def _check_iter(self, expr: ast.AST) -> None:
        reason = self._unordered_reason(expr)
        if reason is not None:
            self.report(expr, reason)

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


@register
class ScheduleArgumentChecker(Checker):
    """SIM001: suspicious arguments to ``schedule``/``schedule_at``/``call``/``lane``.

    Two statically provable misuses:

    * a delay that is a literal negative number or an explicit
      ``float('nan')``/``float('inf')``/``math.nan``/``math.inf`` — the
      engine now raises at runtime, but the call site is simply wrong;
    * a ``lambda`` callback that closes over an enclosing ``for``-loop
      variable — every scheduled lambda sees the variable's *final* value,
      a classic late-binding bug that reorders/merges events silently.
      Bind the value instead: the scheduling API takes ``*args`` precisely
      so callbacks need no closure.
    """

    code = "SIM001"
    message = "suspicious scheduling call"
    hint = (
        "delays must be finite and non-negative; pass loop variables as "
        "schedule(delay, fn, value) positional args, not via a closing lambda"
    )

    def __init__(self, context: ModuleContext) -> None:
        super().__init__(context)
        self._loop_targets: List[Set[str]] = []

    # -- loop-variable tracking ---------------------------------------

    @staticmethod
    def _target_names(target: ast.AST) -> Set[str]:
        return {
            leaf.id
            for leaf in ast.walk(target)
            if isinstance(leaf, ast.Name)
        }

    def visit_For(self, node: ast.For) -> None:
        self._loop_targets.append(self._target_names(node.target))
        self.generic_visit(node)
        self._loop_targets.pop()

    visit_AsyncFor = visit_For

    def _function_scope(self, node: ast.AST) -> None:
        # A nested def starts a fresh late-binding story only if it is
        # itself called later; treat it conservatively as a new scope for
        # loop variables *outside* it (they are still late-bound, but a
        # def is usually invoked promptly and flagged code would be too
        # noisy).  Loops *inside* the def are tracked normally.
        saved, self._loop_targets = self._loop_targets, []
        self.generic_visit(node)
        self._loop_targets = saved

    visit_FunctionDef = _function_scope
    visit_AsyncFunctionDef = _function_scope

    # -- the rule -------------------------------------------------------

    @staticmethod
    def _is_bad_delay(expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            operand = expr.operand
            if isinstance(operand, ast.Constant) and isinstance(
                operand.value, (int, float)
            ):
                return f"literal negative delay -{operand.value!r}"
        if isinstance(expr, ast.Call):
            func = expr.func
            if (
                isinstance(func, ast.Name)
                and func.id == "float"
                and len(expr.args) == 1
                and isinstance(expr.args[0], ast.Constant)
                and isinstance(expr.args[0].value, str)
                and expr.args[0].value.strip().lstrip("+-").lower()
                in ("nan", "inf", "infinity")
            ):
                return f"float({expr.args[0].value!r}) delay"
        name = dotted_name(expr)
        if name in ("math.nan", "math.inf", "np.nan", "np.inf", "numpy.nan", "numpy.inf"):
            return f"{name} delay"
        return None

    def _lambda_closes_over_loop_var(self, lam: ast.Lambda) -> Optional[str]:
        if not self._loop_targets:
            return None
        active: Set[str] = set().union(*self._loop_targets)
        params = {arg.arg for arg in lam.args.args}
        params.update(arg.arg for arg in lam.args.kwonlyargs)
        params.update(arg.arg for arg in lam.args.posonlyargs)
        if lam.args.vararg:
            params.add(lam.args.vararg.arg)
        if lam.args.kwarg:
            params.add(lam.args.kwarg.arg)
        for leaf in ast.walk(lam.body):
            if (
                isinstance(leaf, ast.Name)
                and isinstance(leaf.ctx, ast.Load)
                and leaf.id in active
                and leaf.id not in params
            ):
                return leaf.id
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and node.args and (
            func.attr in SCHEDULING_METHODS or func.attr == LANE_FACTORY
        ):
            # A lane's delay is given at ``sim.lane(delay)``; where the first
            # argument is a callback (``lane.call(fn, arg)``,
            # ``lane.every(fn, arg)``) this is a no-op.
            reason = self._is_bad_delay(node.args[0])
            if reason is not None:
                self.report(node, reason)
            for candidate in callback_candidates(node):
                if not isinstance(candidate, ast.Lambda):
                    continue
                captured = self._lambda_closes_over_loop_var(candidate)
                if captured is not None:
                    self.report(
                        candidate,
                        f"lambda callback closes over loop variable {captured!r}",
                    )
        self.generic_visit(node)


@register
class FloatTimeEqualityChecker(Checker):
    """FLT001: ``==``/``!=`` against the simulation clock.

    Simulation times are sums of float delays: ``0.1 * 3 != 0.3``.  An
    equality against ``sim.now`` (or any ``.now`` attribute) is at best
    fragile and at worst a heisenbug that appears when a delay expression
    is refactored.  Compare with a tolerance, or compare event *ordering*
    (the engine's ``seq`` tie-break) instead of timestamps.

    Tests are exempt: asserting ``sim.now == 10.0`` after ``run(until=10.0)``
    is exactly how reproducibility itself is pinned down.
    """

    code = "FLT001"
    message = "float equality against simulation time"
    hint = (
        "use math.isclose / an explicit tolerance, or restructure to "
        "compare event order; exact assertions belong in tests"
    )
    exempt_path_parts = ("tests/",)

    @staticmethod
    def _is_sim_time(expr: ast.AST) -> bool:
        return isinstance(expr, ast.Attribute) and expr.attr == "now"

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                self._is_sim_time(left) or self._is_sim_time(right)
            ):
                self.report(node, "compared with == / !=")
                break
        self.generic_visit(node)


@register
class SwallowedCallbackErrorChecker(Checker):
    """ERR001: exception handlers that swallow event-callback failures.

    A bare ``except:`` (or ``except Exception: pass``) inside simulation
    code turns a corrupted-state crash into a silently wrong result — the
    worst possible failure mode for a reproduction whose outputs are
    numbers in a table.  Scoped to modules that schedule events, where a
    swallowed error means the event chain quietly stops or continues from
    bad state.
    """

    code = "ERR001"
    message = "exception handler swallows event-callback failures"
    hint = (
        "catch the narrowest exception that is actually expected and "
        "re-raise or record everything else"
    )

    def run(self) -> List:
        if not self.context.schedules_events:
            return self.findings
        return super().run()

    @staticmethod
    def _is_silent_body(body: List[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
            for stmt in body
        )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare except:")
        elif (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
            and self._is_silent_body(node.body)
        ):
            self.report(node, f"except {node.type.id}: pass")
        self.generic_visit(node)


@register
class SilentSwallowChecker(Checker):
    """ERR002: silently swallowed broad exceptions in library code.

    The complement of ERR001: that rule covers modules that schedule
    events; this one covers the rest of ``src/`` — caches, reporting,
    sweep orchestration — where an ``except Exception: pass`` quietly
    converts a failure into a wrong (or missing) number.  Only *silent*
    handlers are flagged: catching broadly to record, wrap, or re-raise
    is legitimate; catching broadly to do nothing never is.  Handlers for
    named narrow exceptions (``except OSError: pass``) are left to review.

    Scoped to ``src/`` so tests remain free to assert "this must not
    raise" however they like.
    """

    code = "ERR002"
    message = "broad exception handler silently swallows failures"
    hint = (
        "catch the narrowest expected exception, or record/re-raise "
        "what was caught; suppress with '# noqa: ERR002' only where "
        "dropping the error is the documented contract"
    )
    only_path_parts = ("src/",)

    def run(self) -> List:
        if self.context.schedules_events:
            return self.findings  # ERR001's territory
        return super().run()

    @staticmethod
    def _is_broad(node_type: Optional[ast.expr]) -> Optional[str]:
        if node_type is None:
            return "bare except:"
        if isinstance(node_type, ast.Name) and node_type.id in (
            "Exception", "BaseException",
        ):
            return f"except {node_type.id}:"
        if isinstance(node_type, ast.Tuple):
            for element in node_type.elts:
                if isinstance(element, ast.Name) and element.id in (
                    "Exception", "BaseException",
                ):
                    return f"except (..., {element.id}, ...):"
        return None

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        reason = self._is_broad(node.type)
        if reason is not None and SwallowedCallbackErrorChecker._is_silent_body(
            node.body
        ):
            self.report(node, reason)
        self.generic_visit(node)
