"""Command-line interface: ``python -m repro.lint [paths] [options]``.

Exit status is 0 when the tree is clean, 1 when findings were reported,
and 2 for usage errors — the contract CI relies on.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.lint.base import all_checkers
from repro.lint.runner import LintReport, lint_paths

#: Version of the ``--format=json`` schema (bump on breaking changes).
JSON_SCHEMA_VERSION = 1


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
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def render_text(report: LintReport) -> str:
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


def render_json(report: LintReport) -> str:
    return json.dumps(
        {
            "version": JSON_SCHEMA_VERSION,
            "files_checked": report.files_checked,
            "findings": [finding.as_dict() for finding in report.findings],
        },
        indent=2,
        sort_keys=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, checker in sorted(all_checkers().items()):
            summary = (checker.__doc__ or checker.message).strip().splitlines()[0]
            print(f"{code}  {summary}")
        return 0

    try:
        report = lint_paths(args.paths, select=args.select, ignore=args.ignore)
    except ValueError as exc:
        parser.error(str(exc))

    render = render_json if args.output_format == "json" else render_text
    print(render(report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
