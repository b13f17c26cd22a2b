"""Determinism and simulator-invariant static analysis.

The paper's figures only reproduce if simulation runs are bit-for-bit
deterministic for a given seed.  This package enforces the invariants that
make that true — no ambient RNG, no wall clock, no unordered iteration in
scheduling paths, no NaN event times — as an AST-based lint that runs in CI
(``python -m repro.lint src tests bench benchmarks examples``) and as a
library (:func:`repro.lint.runner.lint_source` for tests and tooling).

Rule codes, all per-module (one AST at a time): DET001 (ambient random
state), DET002 (wall clock), DET003 (unordered iteration in scheduling
modules), SIM001 (suspicious scheduling arguments), FLT001 (float equality
against simulation time), ERR001 (swallowed callback errors), ERR002
(silently swallowed broad exceptions in library code).

Each code is individually suppressible with a ``# noqa: CODE`` comment;
DESIGN.md §8 documents when suppression is legitimate, and §12 why there
is no whole-program pass.
"""

from repro.lint.base import (
    Checker,
    Finding,
    ModuleContext,
    all_checkers,
    dotted_name,
    register,
)
from repro.lint.cli import JSON_SCHEMA_VERSION, main
from repro.lint.runner import (
    PARSE_ERROR_CODE,
    LintReport,
    lint_paths,
    lint_source,
)

__all__ = [
    "Checker",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintReport",
    "ModuleContext",
    "PARSE_ERROR_CODE",
    "all_checkers",
    "dotted_name",
    "lint_paths",
    "lint_source",
    "main",
    "register",
]
