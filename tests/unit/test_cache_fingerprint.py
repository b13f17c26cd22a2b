"""Tests for the per-module disk-cache code fingerprint.

The fingerprint must cover exactly the sources a scenario run can
execute — the transitive ``repro.*`` import closure of the runner and the
scenario catalog — so that editing simulator code invalidates every disk
entry while editing tooling (a lint rule, the lint CLI) keeps a warm
cache warm.  The closure tests work on a throwaway copy of the source
tree so they can mutate files freely.
"""

from __future__ import annotations

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
