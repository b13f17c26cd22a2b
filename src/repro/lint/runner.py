"""File discovery and rule execution.

The runner walks the given paths (files or directory trees), parses each
Python module once, runs every selected rule against the shared AST, and
filters the raw findings through the module's ``# noqa`` comments.  A file
that does not parse yields a single ``PARSE`` finding rather than crashing
the run, so one broken file cannot hide findings in the rest of the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Type

from repro.lint import rules as _rules  # noqa: F401  (imports register the rule set)
from repro.lint.base import Checker, Finding, ModuleContext, all_checkers
from repro.lint.noqa import is_suppressed, noqa_map

#: Pseudo-rule code for files that fail to parse.
PARSE_ERROR_CODE = "PARSE"

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted.

    Deterministic order (the linter practices what it preaches): directories
    are walked in sorted order, and explicitly listed files keep their
    command-line order.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIR_NAMES for part in candidate.parts):
                    continue
                yield candidate
        else:
            yield path


def select_checkers(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Type[Checker]]:
    """Resolve ``--select`` / ``--ignore`` to concrete rule classes.

    Unknown codes raise ``ValueError`` — a typo in a CI invocation should
    fail loudly, not silently lint nothing.
    """
    registry = all_checkers()
    selected: Set[str] = set(registry)
    if select is not None:
        wanted = {code.upper() for code in select}
        unknown = wanted - set(registry)
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        selected = wanted
    if ignore is not None:
        dropped = {code.upper() for code in ignore}
        unknown = dropped - set(registry)
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        selected -= dropped
    return [registry[code] for code in sorted(selected)]


def lint_source(
    display_path: str,
    source: str,
    checkers: Optional[Sequence[Type[Checker]]] = None,
) -> List[Finding]:
    """Lint one module given as a string (the unit-test entry point)."""
    if checkers is None:
        checkers = select_checkers()
    try:
        tree = ast.parse(source, filename=display_path)
    except SyntaxError as exc:
        return [
            Finding(
                path=display_path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error; nothing in this file was checked",
            )
        ]
    context = ModuleContext(display_path, source, tree)
    suppressions = noqa_map(source)
    findings: List[Finding] = []
    for checker_cls in checkers:
        if not checker_cls.applies_to(display_path):
            continue
        for finding in checker_cls(context).run():
            if not is_suppressed(suppressions, finding.line, finding.code):
                findings.append(finding)
    findings.sort(key=lambda finding: finding.sort_key)
    return findings


@dataclass
class LintReport:
    """Outcome of one :func:`lint_paths` run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint files/trees and return the aggregate report."""
    checkers = select_checkers(select, ignore)
    report = LintReport()
    for path in iter_python_files(paths):
        display = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.findings.append(
                Finding(
                    path=display,
                    line=1,
                    col=0,
                    code=PARSE_ERROR_CODE,
                    message=f"file is unreadable: {exc}",
                    hint="check the path passed to the linter",
                )
            )
            continue
        report.files_checked += 1
        report.findings.extend(lint_source(display, source, checkers))
    report.findings.sort(key=lambda finding: finding.sort_key)
    return report
