"""Every name the docs advertise exists: ``python -m X`` commands and the
``Class.member`` identifiers of DESIGN.md §11.

README.md, ROADMAP.md's "Static gates" block and the CI workflow are where
people copy commands from; nothing else fails when one of them still names
a command line that has been deleted or renamed.  DESIGN.md §11 (the
simulator fast path) explains the engine by naming its methods, so a
rename there must fail as loudly.
"""

from __future__ import annotations

import ast
import importlib
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


# -- DESIGN.md §11: backticked ``Class.member`` names resolve ------------------

_SPAN = re.compile(r"`([^`]+)`")
_MEMBER = re.compile(r"([A-Z]\w*)\.(\w+)")


def _repro_classes() -> dict[str, str]:
    """Top-level class name -> defining module, over ``src/repro``."""
    src = REPO_ROOT / "src"
    classes: dict[str, str] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, module)
    return classes


def _section_11_members() -> list[tuple[str, str, str]]:
    """Sorted (module, class, member) for every backticked ``Class.member``
    in DESIGN.md §11 whose class is defined under ``src/repro``."""
    design = (REPO_ROOT / "DESIGN.md").read_text()
    section = design[design.index("## 11."):design.index("## 12.")]
    classes = _repro_classes()
    found = set()
    for span in _SPAN.findall(section):
        match = _MEMBER.match(span)
        if match and match.group(1) in classes:
            found.add((classes[match.group(1)], match.group(1), match.group(2)))
    return sorted(found)


SECTION_11_MEMBERS = _section_11_members()


def test_the_scan_sees_the_members():
    names = {(cls, member) for _, cls, member in SECTION_11_MEMBERS}
    for expected in (
        ("Lane", "call"),
        ("Simulator", "call_chained"),
        ("OutputPort", "_start_next"),
        ("FlowAccounting", "acquire"),
    ):
        assert expected in names, expected


@pytest.mark.parametrize("module,cls,member", SECTION_11_MEMBERS)
def test_design_section_11_member_resolves(module, cls, member, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "src"))
    owner = getattr(importlib.import_module(module), cls)
    fields = getattr(owner, "__dataclass_fields__", {})
    assert hasattr(owner, member) or member in fields, (
        f"DESIGN.md §11 names `{cls}.{member}`, which {module}.{cls} lacks"
    )
