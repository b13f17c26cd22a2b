"""Command-line interface: ``python -m repro.lint [paths] [options]``.

Exit status is 0 when the tree is clean, 1 when findings were reported,
and 2 for usage errors — the contract CI relies on.

Two analysis modes share the interface: the default per-module pass (one
AST at a time, rules DET/SIM/FLT/ERR) and ``--graph``, which builds the
whole-program project model once and runs the cross-module XMOD rules on
it.  ``--graph`` additionally honors the committed baseline file
(``lint_baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.lint.base import Finding, all_checkers, all_graph_checkers
from repro.lint.baseline import (
    DEFAULT_BASELINE_NAME,
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.lint.runner import (
    GraphLintReport,
    LintReport,
    graph_lint_paths,
    lint_paths,
)

#: Version of the ``--format=json`` schema (bump on breaking changes).
JSON_SCHEMA_VERSION = 1

#: SARIF spec version emitted by ``--format=sarif``.
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

AnyReport = Union[LintReport, GraphLintReport]


def _split_codes(value: str) -> List[str]:
    return [code.strip() for code in value.split(",") if code.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Determinism and simulator-invariant static analysis for the "
            "repro codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        type=_split_codes,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        type=_split_codes,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help=(
            "whole-program mode: build the cross-module project model and "
            "run the XMOD rules instead of the per-module rules"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=DEFAULT_BASELINE_NAME,
        help=(
            "baseline file of grandfathered graph findings "
            f"(default: {DEFAULT_BASELINE_NAME}; a missing file is empty)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "with --graph: write the current findings to the baseline file "
            "and exit 0 (rule-rollout / debt-recording workflow)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def render_text(report: AnyReport) -> str:
    lines = []
    for finding in report.findings:
        lines.append(finding.render())
        lines.append(f"    hint: {finding.hint}")
    noun = "file" if report.files_checked == 1 else "files"
    if report.ok:
        lines.append(f"{report.files_checked} {noun} checked, no findings")
    else:
        count = len(report.findings)
        noun2 = "finding" if count == 1 else "findings"
        lines.append(f"{report.files_checked} {noun} checked, {count} {noun2}")
    return "\n".join(lines)


def render_json(report: AnyReport) -> str:
    return json.dumps(
        {
            "version": JSON_SCHEMA_VERSION,
            "files_checked": report.files_checked,
            "findings": [finding.as_dict() for finding in report.findings],
        },
        indent=2,
        sort_keys=True,
    )


def render_sarif(findings: Sequence[Finding]) -> str:
    """Minimal SARIF 2.1.0 log for CI code-scanning upload.

    One run, one driver, one rule record per distinct code, one result
    per finding; columns are 1-based per the SARIF spec (the linter's own
    columns are 0-based, matching Python AST offsets).
    """
    rule_codes = sorted({finding.code for finding in findings})
    hints = {finding.code: finding.hint for finding in findings}
    return json.dumps(
        {
            "$schema": _SARIF_SCHEMA,
            "version": SARIF_VERSION,
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro.lint",
                            "rules": [
                                {
                                    "id": code,
                                    "shortDescription": {"text": hints[code]},
                                }
                                for code in rule_codes
                            ],
                        }
                    },
                    "results": [
                        {
                            "ruleId": finding.code,
                            "level": "error",
                            "message": {"text": finding.message},
                            "locations": [
                                {
                                    "physicalLocation": {
                                        "artifactLocation": {
                                            "uri": finding.path,
                                        },
                                        "region": {
                                            "startLine": finding.line,
                                            "startColumn": finding.col + 1,
                                        },
                                    }
                                }
                            ],
                        }
                        for finding in findings
                    ],
                }
            ],
        },
        indent=2,
        sort_keys=True,
    )


def _render(report: AnyReport, output_format: str) -> str:
    if output_format == "json":
        return render_json(report)
    if output_format == "sarif":
        return render_sarif(report.findings)
    return render_text(report)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        registry = {**all_checkers(), **all_graph_checkers()}
        for code, checker in sorted(registry.items()):
            summary = (checker.__doc__ or checker.message).strip().splitlines()[0]
            print(f"{code}  {summary}")
        return 0

    if args.graph:
        baseline_path = Path(args.baseline)
        try:
            baseline = [] if args.write_baseline else load_baseline(baseline_path)
        except BaselineError as exc:
            parser.error(str(exc))
        try:
            report: AnyReport = graph_lint_paths(
                args.paths,
                select=args.select,
                ignore=args.ignore,
                baseline=baseline,
            )
        except ValueError as exc:
            parser.error(str(exc))
        if args.write_baseline:
            write_baseline(baseline_path, report.findings)
            count = len(report.findings)
            noun = "finding" if count == 1 else "findings"
            print(f"baseline written: {baseline_path} ({count} {noun})")
            return 0
        assert isinstance(report, GraphLintReport)
        for note in report.render_stale():
            print(note, file=sys.stderr)
    else:
        if args.write_baseline:
            parser.error("--write-baseline requires --graph")
        try:
            report = lint_paths(args.paths, select=args.select, ignore=args.ignore)
        except ValueError as exc:
            parser.error(str(exc))

    print(_render(report, args.output_format))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
