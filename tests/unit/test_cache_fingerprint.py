"""Tests for the per-module disk-cache code fingerprint.

The fingerprint must cover exactly the sources a scenario run can
execute — the transitive ``repro.*`` import closure of the runner and the
scenario catalog — so that editing simulator code invalidates every disk
entry while editing tooling (a lint rule, the lint CLI) keeps a warm
cache warm.  The closure tests work on a throwaway copy of the source
tree so they can mutate files freely.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

from repro.experiments import cache

_SRC_REPRO = Path(cache.__file__).resolve().parent.parent


def test_closure_covers_the_simulation_stack():
    files = set(cache.fingerprint_files())
    for expected in (
        "repro/__init__.py",
        "repro/sim/engine.py",
        "repro/net/packet.py",
        "repro/net/link.py",
        "repro/experiments/runner.py",
        "repro/experiments/scenarios.py",
    ):
        assert expected in files, expected


def test_closure_excludes_tooling_packages():
    files = cache.fingerprint_files()
    assert not [f for f in files if f.startswith("repro/lint/")]


def test_closure_is_sorted_and_relative():
    files = cache.fingerprint_files()
    assert list(files) == sorted(files)
    assert all(f.startswith("repro/") for f in files)


def _fingerprint_of_tree(monkeypatch, tree: Path) -> str:
    """Compute the fingerprint as if ``tree`` were the installed package."""
    monkeypatch.setattr(cache, "__file__",
                        str(tree / "experiments" / "cache.py"))
    monkeypatch.setattr(cache, "_code_fingerprint_cached", None)
    return cache.code_fingerprint()


def test_touching_lint_does_not_invalidate_cache(tmp_path, monkeypatch):
    """The satellite requirement: a lint-rule edit keeps disk keys stable."""
    tree = tmp_path / "repro"
    shutil.copytree(_SRC_REPRO, tree)
    before = _fingerprint_of_tree(monkeypatch, tree)

    rules = tree / "lint" / "rules.py"
    rules.write_text(rules.read_text() + "\n# an edited lint rule\n")
    cli = tree / "lint" / "cli.py"
    cli.write_text(cli.read_text() + "\n# an edited command line\n")

    assert _fingerprint_of_tree(monkeypatch, tree) == before


def test_touching_simulation_code_invalidates_cache(tmp_path, monkeypatch):
    tree = tmp_path / "repro"
    shutil.copytree(_SRC_REPRO, tree)
    before = _fingerprint_of_tree(monkeypatch, tree)

    engine = tree / "sim" / "engine.py"
    engine.write_text(engine.read_text() + "\n# a behavioural tweak\n")

    assert _fingerprint_of_tree(monkeypatch, tree) != before


def test_fingerprint_is_cached_per_process(monkeypatch):
    monkeypatch.setattr(cache, "_code_fingerprint_cached", None)
    first = cache.code_fingerprint()
    assert cache.code_fingerprint() is first  # memoized, not recomputed


def test_fingerprint_feeds_run_keys(monkeypatch):
    """Different fingerprints must yield different run keys for the same
    config — that is the invalidation mechanism end to end."""
    from repro.experiments.scenarios import get_scenario

    config = get_scenario("basic").config(scale=0.002, seed=1)
    monkeypatch.setattr(cache, "code_fingerprint", lambda: "fp-one")
    key_one = cache.run_key(config)
    monkeypatch.setattr(cache, "code_fingerprint", lambda: "fp-two")
    key_two = cache.run_key(config)
    assert key_one != key_two


def _ast_imports(path: Path) -> set:
    """The oracle for :func:`cache._module_imports`: a full AST walk."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(
                alias.name for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level == 0 and module is not None and (
                module == "repro" or module.startswith("repro.")
            ):
                names.add(module)
                names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_import_scan_matches_the_ast_on_every_source_file():
    sources = sorted(_SRC_REPRO.rglob("*.py"))
    assert len(sources) > 40
    for path in sources:
        assert cache._module_imports(path) == _ast_imports(path), path


_EVERY_FORM = """\
import os, repro.sim.engine as engine_module, json
import repro
from repro.net import (
    link,  # the port
    packet as pkt,
    # a comment line inside the list
    queues,
)
from repro.obs import trace as tr, \\
    config
from repro import units
from .relative import ignored
import repro_lookalike
from repro_lookalike import nothing


def local():
    from repro.experiments import scenarios
    if True:
        import repro.faults.model  # noqa
    return scenarios
"""


def test_import_scan_handles_every_statement_form(tmp_path):
    path = tmp_path / "forms.py"
    path.write_text(_EVERY_FORM)
    expected = {
        "repro", "repro.sim.engine", "repro.net", "repro.net.link",
        "repro.net.packet", "repro.net.queues", "repro.obs",
        "repro.obs.trace", "repro.obs.config", "repro.units",
        "repro.experiments", "repro.experiments.scenarios",
        "repro.faults.model",
    }
    assert _ast_imports(path) == expected
    assert cache._module_imports(path) == expected
