"""Every ``python -m X`` the docs and CI advertise names a module that exists.

README.md, ROADMAP.md's "Static gates" block and the CI workflow are where
people copy commands from; nothing else fails when one of them still names
a command line that has been deleted or renamed.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Installed tools, not modules of this repository.
EXTERNAL = frozenset({"pip", "pytest", "mypy"})

_COMMAND = re.compile(r"python3? -m ([A-Za-z_][\w.]*)")


def _advertised() -> list[tuple[str, str]]:
    """Sorted (file, module) pairs, one per distinct module per file."""
    roadmap = (REPO_ROOT / "ROADMAP.md").read_text()
    texts = {
        "README.md": (REPO_ROOT / "README.md").read_text(),
        # Only the "Static gates" block: open items name CLIs not built yet.
        "ROADMAP.md": roadmap[
            roadmap.index("Static gates"):roadmap.index("## Open items")
        ],
        ".github/workflows/ci.yml":
            (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(),
    }
    return sorted(
        (name, module)
        for name, text in texts.items()
        for module in {m.rstrip(".") for m in _COMMAND.findall(text)} - EXTERNAL
    )


ADVERTISED = _advertised()


def test_the_scan_sees_the_commands():
    """A regex or slicing slip must not turn the check below vacuous."""
    for expected in (
        ("README.md", "bench"),
        ("README.md", "repro.lint"),
        ("ROADMAP.md", "repro.lint"),
        (".github/workflows/ci.yml", "bench"),
        (".github/workflows/ci.yml", "repro.obs"),
    ):
        assert expected in ADVERTISED, expected


@pytest.mark.parametrize("source,module", ADVERTISED)
def test_advertised_module_exists(source, module, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    monkeypatch.syspath_prepend(str(REPO_ROOT / "src"))
    try:
        spec = importlib.util.find_spec(module)
    except ModuleNotFoundError:  # a missing parent package
        spec = None
    assert spec is not None, f"{source} advertises `python -m {module}`"
    if spec.submodule_search_locations is not None:
        # ``-m`` on a package runs its ``__main__``.
        assert importlib.util.find_spec(f"{module}.__main__") is not None, (
            f"{source} advertises `python -m {module}`, a package "
            "without a __main__"
        )
