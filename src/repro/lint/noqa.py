"""``# noqa`` suppression comments.

Two forms are honored, matching the flake8 convention:

* ``# noqa`` — suppress every rule on that line;
* ``# noqa: DET001`` or ``# noqa: DET001, SIM001`` — suppress only the
  listed codes.

Suppressions are per-line: a finding is dropped when its line carries a
blanket ``noqa`` or one naming the finding's code.  Only real comments
count — the scan walks the token stream, so ``noqa`` spelled inside a
string literal or docstring (the rules' own hint strings mention
``# noqa: DET001`` as advice) waives nothing.  Files that never mention
``noqa`` are not tokenized at all.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, List, Optional, Tuple

# One letter is enough for a code prefix: flake8's own codes are ``F401``
# shaped, and treating ``# noqa: F401`` as a *blanket* waiver (which the
# old two-letter minimum silently did) would suppress every repro.lint
# rule on lines that only meant to quiet an import warning.
_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]{1,10}\d{2,4}(?:[,\s]+[A-Z]{1,10}\d{2,4})*))?",
    re.IGNORECASE,
)

#: line -> None for a blanket suppression, or the set of suppressed codes.
NoqaMap = Dict[int, Optional[FrozenSet[str]]]

#: One suppression comment: (line, comment text, listed codes or None).
_NoqaComment = Tuple[int, str, Optional[FrozenSet[str]]]


def _noqa_comments(source: str) -> List[_NoqaComment]:
    """Every ``# noqa`` comment token of a module, in line order."""
    if "noqa" not in source.lower():
        return []
    found: List[_NoqaComment] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is None:
                continue
            listed = match.group("codes")
            codes = None if listed is None else frozenset(
                code.upper() for code in re.split(r"[,\s]+", listed) if code
            )
            found.append((token.start[0], token.string.strip(), codes))
    except (tokenize.TokenError, IndentationError):
        # An untokenizable file does not parse either: the runner reports
        # PARSE for it and runs no rule, so there is nothing to waive.
        pass
    return found


def noqa_map(source: str) -> NoqaMap:
    """Scan module source for suppression comments, keyed by line number."""
    return {line: codes for line, _, codes in _noqa_comments(source)}


def is_suppressed(mapping: NoqaMap, line: int, code: str) -> bool:
    """True when a finding of ``code`` at ``line`` is waived by a comment."""
    if line not in mapping:
        return False
    codes = mapping[line]
    return codes is None or code.upper() in codes


def comment_waivers(
    source: str,
    codes: Optional[FrozenSet[str]] = None,
) -> List[Tuple[int, str]]:
    """Every ``# noqa`` comment in a module, as ``(line, text)``.

    With ``codes`` given, only waivers that could suppress one of those
    codes are reported: blanket waivers always count, code-listing waivers
    only when they name one of ``codes`` — a ``# noqa: F401`` aimed at
    flake8 is not a waiver of *this* linter's rules.  This is the
    waiver-*audit* primitive behind the policy test asserting zero waivers
    under ``src/``.
    """
    return [
        (line, text)
        for line, text, named in _noqa_comments(source)
        if codes is None or named is None or named & codes
    ]
