"""Cross-module (XMOD) lint engine tests.

Covers the fixture mini-packages under ``tests/fixtures/xmod/`` (one
positive + negative pair per rule, plus noqa and baseline suppression),
model determinism (byte-identical JSON across builds), the fixture-tree
walk exclusion, the CLI surface, and the two policy invariants the
repository itself must hold: zero unbaselined XMOD findings and zero
``# noqa`` waivers under ``src/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import graph_lint_paths, main
from repro.lint.base import all_checkers, all_graph_checkers
from repro.lint.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    render_baseline,
)
from repro.lint.cli import render_sarif
from repro.lint.graph import build_model
from repro.lint.noqa import comment_waivers
from repro.lint.runner import iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "xmod"


def fixture_files(name):
    return list(iter_python_files([str(FIXTURES / name)]))


def lint_fixture(name, **kwargs):
    return graph_lint_paths([str(FIXTURES / name)], **kwargs)


# -- rule fixtures: positive fires, negative stays silent --------------------


@pytest.mark.parametrize("code", ["XMOD001", "XMOD002", "XMOD003", "XMOD004"])
def test_positive_fixture_fires(code):
    report = lint_fixture(f"{code.lower()}_pos")
    assert {finding.code for finding in report.findings} == {code}


@pytest.mark.parametrize("code", ["XMOD001", "XMOD002", "XMOD003", "XMOD004"])
def test_negative_fixture_is_clean(code):
    report = lint_fixture(f"{code.lower()}_neg")
    assert report.findings == []
    assert report.files_checked >= 2


def test_lane_scheduled_callbacks_are_in_the_sim_domain():
    """``Lane.call(fn, ...)`` has the callback first: both the chained
    ``sim.lane(d).call(fn)`` and the stored-lane form must put ``fn`` in the
    sim scheduling domain, or XMOD003 silently loses coverage."""
    report = lint_fixture("xmod003_lane_pos")
    assert {finding.code for finding in report.findings} == {"XMOD003"}
    symbols = {finding.symbol for finding in report.findings}
    assert symbols == {"pkg.cbmod._tick", "pkg.cbmod.Ticker._fire"}


def test_xmod001_reports_both_shapes():
    """The positive fixture has a global-receiver AND a global-write case."""
    report = lint_fixture("xmod001_pos")
    messages = [finding.message for finding in report.findings]
    assert any("module-global engine" in message for message in messages)
    assert any("module global" in message for message in messages)


def test_findings_carry_symbols_and_worker_chain():
    report = lint_fixture("xmod001_pos")
    symbols = {finding.symbol for finding in report.findings}
    assert "pkg.worker.compute" in symbols
    assert "pkg.worker._tally" in symbols
    assert any("worker path:" in finding.message for finding in report.findings)


# -- suppression: noqa, then baseline ---------------------------------------


def test_noqa_suppresses_graph_finding():
    report = lint_fixture("xmod001_noqa")
    assert report.findings == []


def test_baseline_suppresses_and_reports_stale():
    raw = lint_fixture("xmod001_pos")
    entries = [
        BaselineEntry(path=finding.path, code=finding.code, symbol=finding.symbol)
        for finding in raw.findings
    ]
    baselined = lint_fixture("xmod001_pos", baseline=entries)
    assert baselined.findings == []
    assert baselined.stale_baseline == []

    stale_entry = BaselineEntry(
        path="src/pkg/gone.py", code="XMOD001", symbol="pkg.gone.fn"
    )
    with_stale = lint_fixture("xmod001_pos", baseline=entries + [stale_entry])
    assert with_stale.findings == []
    assert with_stale.stale_baseline == [stale_entry]


def test_apply_baseline_matches_on_symbol_not_line():
    raw = lint_fixture("xmod001_pos")
    entries = [
        BaselineEntry(path=finding.path, code=finding.code, symbol=finding.symbol)
        for finding in raw.findings
    ]
    surviving, stale = apply_baseline(raw.findings, entries)
    assert surviving == [] and stale == []
    # A different symbol does not match.
    wrong = [
        BaselineEntry(path=entry.path, code=entry.code, symbol="pkg.other")
        for entry in entries
    ]
    surviving, stale = apply_baseline(raw.findings, wrong)
    assert len(surviving) == len(raw.findings)
    assert len(stale) == len(set(wrong))


def test_baseline_roundtrip(tmp_path):
    raw = lint_fixture("xmod001_pos")
    path = tmp_path / "lint_baseline.json"
    path.write_text(render_baseline(raw.findings))
    entries = load_baseline(path)
    assert entries and all(entry.code == "XMOD001" for entry in entries)
    surviving, stale = apply_baseline(raw.findings, entries)
    assert surviving == [] and stale == []


# -- determinism ------------------------------------------------------------


def test_model_builds_are_byte_identical():
    files = list(iter_python_files([str(REPO_ROOT / "src")]))
    first = build_model(files).to_json()
    second = build_model(files).to_json()
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


# -- fixture-tree exclusion from normal walks --------------------------------


def test_fixture_marker_hides_tree_from_outer_walks():
    walked = {p.as_posix() for p in iter_python_files([str(REPO_ROOT / "tests")])}
    assert not any("fixtures/xmod" in path for path in walked)


def test_fixture_marker_keeps_rooted_walks_intact():
    files = fixture_files("xmod001_pos")
    assert len(files) == 3  # __init__, engine, worker


# -- repository policy invariants -------------------------------------------


def test_repo_has_zero_unbaselined_xmod_findings():
    baseline = load_baseline(REPO_ROOT / "lint_baseline.json")
    report = graph_lint_paths([str(REPO_ROOT / "src")], baseline=baseline)
    assert report.findings == []
    assert report.stale_baseline == []
    assert report.files_checked > 50


def test_src_has_zero_noqa_waivers():
    """Policy: waivers are test-only; the library earns a clean bill.

    Blanket ``# noqa`` comments and waivers naming any of this linter's
    own codes both count; flake8-style waivers of foreign codes (e.g.
    ``# noqa: F401`` on a registration import) do not.
    """
    own_codes = frozenset(all_checkers()) | frozenset(all_graph_checkers())
    waivers = []
    for path in iter_python_files([str(REPO_ROOT / "src")]):
        source = path.read_text(encoding="utf-8")
        for line, text in comment_waivers(source, codes=own_codes):
            waivers.append(f"{path.as_posix()}:{line}: {text}")
    assert waivers == []


def test_comment_waivers_ignores_strings():
    source = (
        'HINT = "suppress with # noqa: DET001 when legitimate"\n'
        "x = 1  # noqa: XMOD002\n"
    )
    assert comment_waivers(source) == [(2, "# noqa: XMOD002")]


def test_comment_waivers_code_filter():
    source = (
        "import os  # noqa: F401\n"
        "y = 2  # noqa\n"
        "z = 3  # noqa: DET001\n"
    )
    codes = frozenset({"DET001"})
    assert comment_waivers(source, codes=codes) == [
        (2, "# noqa"),
        (3, "# noqa: DET001"),
    ]


# -- CLI surface -------------------------------------------------------------


def test_all_four_rules_registered():
    codes = set(all_graph_checkers())
    assert {"XMOD001", "XMOD002", "XMOD003", "XMOD004"} <= codes


def test_cli_graph_on_fixture_exits_one(capsys):
    rc = main(["--graph", str(FIXTURES / "xmod004_pos")])
    assert rc == 1
    assert "XMOD004" in capsys.readouterr().out


def test_cli_graph_run_leaves_nothing_behind(tmp_path, monkeypatch, capsys):
    """The model is rebuilt on every run; nothing is stored beside the tree."""
    monkeypatch.chdir(tmp_path)
    assert main(["--graph", str(FIXTURES / "xmod001_neg")]) == 0
    assert list(tmp_path.iterdir()) == []


def test_cli_graph_json_schema(capsys):
    rc = main([
        "--graph", "--format", "json",
        str(FIXTURES / "xmod002_pos"),
    ])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"]
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "code", "message", "hint"}


def test_cli_graph_sarif_output(capsys):
    rc = main([
        "--graph", "--format", "sarif",
        str(FIXTURES / "xmod003_pos"),
    ])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    assert [result["ruleId"] for result in run["results"]] == ["XMOD003"]
    region = run["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_render_sarif_clean_is_valid_empty_log():
    payload = json.loads(render_sarif([]))
    assert payload["runs"][0]["results"] == []


def test_cli_write_baseline_roundtrip(tmp_path, capsys):
    baseline = tmp_path / "lint_baseline.json"
    rc = main([
        "--graph", "--write-baseline",
        "--baseline", str(baseline), str(FIXTURES / "xmod001_pos"),
    ])
    assert rc == 0
    assert "baseline written" in capsys.readouterr().out
    rc = main([
        "--graph", "--baseline", str(baseline),
        str(FIXTURES / "xmod001_pos"),
    ])
    assert rc == 0  # everything grandfathered

    rc = main([
        "--graph", "--baseline", str(baseline),
        str(FIXTURES / "xmod001_neg"),
    ])
    assert rc == 0  # clean tree; stale entries warn but do not fail


def test_cli_write_baseline_requires_graph():
    with pytest.raises(SystemExit) as excinfo:
        main(["--write-baseline", "src"])
    assert excinfo.value.code == 2


def test_cli_graph_unknown_select_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["--graph", "--select", "DET001", str(FIXTURES / "xmod001_neg")])
    assert excinfo.value.code == 2  # DET001 is per-module, not a graph rule


def test_cli_list_rules_includes_graph_codes(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("XMOD001", "XMOD002", "XMOD003", "XMOD004"):
        assert code in out


def test_module_invocation_graph_on_src_exits_zero():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--graph", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "no findings" in result.stdout


# -- model introspection ------------------------------------------------------


def test_worker_entries_discovered_both_ways():
    # Fixture: via the __worker_entry_points__ declaration.
    model = build_model(fixture_files("xmod001_pos"))
    assert "pkg.worker.compute" in model.worker_entries
    # Real tree: via pool.submit(_compute, ...) AND the declaration.
    src_model = build_model(list(iter_python_files([str(REPO_ROOT / "src")])))
    assert "repro.experiments.parallel._compute" in src_model.worker_entries


def test_domains_on_real_tree():
    model = build_model(list(iter_python_files([str(REPO_ROOT / "src")])))
    assert model.domain_of("repro.experiments.runner.run_scenario") == "worker"
    assert model.domain_of("repro.stats.series.PeriodicSampler._tick") == "sim"
    assert model.domain_of("repro.experiments.figures.figure11") == "harness"
