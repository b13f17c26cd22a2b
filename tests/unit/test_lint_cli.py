"""CLI, runner, and clean-tree tests for ``python -m repro.lint``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import JSON_SCHEMA_VERSION, main
from repro.lint.cli import build_parser
from repro.lint.runner import iter_python_files, lint_paths, select_checkers

REPO_ROOT = Path(__file__).resolve().parents[2]

DIRTY = "import random\nimport time\nt = time.time()\n"


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    return path


# -- the repository's own invariant -----------------------------------------


def test_src_tree_is_clean():
    """The linter's reason to exist: the shipped tree has no findings."""
    report = lint_paths([str(REPO_ROOT / "src")])
    assert report.files_checked > 50
    assert report.findings == []


def test_module_invocation_on_src_exits_zero():
    """The one static gate, exactly as CI runs it: every Python tree."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint",
         "src", "tests", "bench", "benchmarks", "examples"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "no findings" in result.stdout


# -- exit codes -------------------------------------------------------------


def test_main_returns_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_main_returns_one_on_findings(dirty_file, capsys):
    assert main([str(dirty_file)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "DET002" in out
    assert "hint:" in out


def test_unknown_rule_code_is_usage_error(dirty_file):
    with pytest.raises(SystemExit) as excinfo:
        main([str(dirty_file), "--select", "NOPE999"])
    assert excinfo.value.code == 2


def test_cli_surface_is_one_mode_two_formats(dirty_file):
    """One pass, text or JSON out: any other format is a usage error."""
    help_text = build_parser().format_help()
    assert set(re.findall(r"--[a-z][a-z-]*", help_text)) == {
        "--help", "--select", "--ignore", "--format", "--list-rules",
    }
    assert "--format {text,json}" in help_text
    with pytest.raises(SystemExit) as excinfo:
        main([str(dirty_file), "--format", "xml"])
    assert excinfo.value.code == 2


# -- select / ignore --------------------------------------------------------


def test_select_runs_only_named_rules(dirty_file):
    report = lint_paths([str(dirty_file)], select=["DET001"])
    assert {finding.code for finding in report.findings} == {"DET001"}


def test_ignore_drops_named_rules(dirty_file):
    report = lint_paths([str(dirty_file)], ignore=["DET001"])
    assert {finding.code for finding in report.findings} == {"DET002"}


def test_select_is_case_insensitive(dirty_file):
    report = lint_paths([str(dirty_file)], select=["det002"])
    assert {finding.code for finding in report.findings} == {"DET002"}


# -- JSON output ------------------------------------------------------------


def test_json_output_schema(dirty_file, capsys):
    assert main([str(dirty_file), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["files_checked"] == 1
    assert isinstance(payload["findings"], list) and payload["findings"]
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "code", "message", "hint"}
        assert isinstance(finding["line"], int)
        assert isinstance(finding["col"], int)
        assert finding["code"]


def test_json_output_clean(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("x = 1\n")
    assert main([str(tmp_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []


# -- misc CLI ---------------------------------------------------------------


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("DET001", "DET002", "DET003", "SIM001", "FLT001", "ERR001"):
        assert code in out
    assert [line.split()[0] for line in out.splitlines()] == [
        "DET001", "DET002", "DET003", "ERR001", "ERR002", "FLT001", "SIM001",
    ]


def test_syntax_error_becomes_parse_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    report = lint_paths([str(tmp_path)])
    assert [finding.code for finding in report.findings] == ["PARSE"]


def test_iter_python_files_sorted_and_skips_pycache(tmp_path):
    (tmp_path / "b.py").write_text("")
    (tmp_path / "a.py").write_text("")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-311.pyc.py").write_text("")
    names = [path.name for path in iter_python_files([str(tmp_path)])]
    assert names == ["a.py", "b.py"]


def test_select_checkers_rejects_unknown():
    with pytest.raises(ValueError):
        select_checkers(select=["ZZZ001"])
