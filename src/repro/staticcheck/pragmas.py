"""Suppression pragmas: ``# staticcheck: ignore[rule]``.

Syntax (anywhere in a comment)::

    x = foo()  # staticcheck: ignore[precision-policy] -- justification
    y = bar()  # staticcheck: ignore[rule-a,rule-b] -- justification
    z = baz()  # staticcheck: ignore  (suppresses every rule on the line)

    # staticcheck: ignore-file[determinism] -- whole-module waiver

A pragma on its own comment line also covers the next code line (blank
lines and wrapped justification comments in between are skipped), so
multi-line statements can carry a suppression above them.  Above a
decorated ``def``/``class`` the coverage extends through the decorator
stack to the definition line, where such findings anchor.
``ignore-file`` applies to the whole module and is parsed anywhere, by
convention near the top.  The engine reports a pragma that names an
unknown rule as ``invalid-pragma`` and, when every rule runs, one that
suppresses no finding as ``unused-pragma``.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

#: Sentinel rule set meaning "every rule".
ALL_RULES = frozenset({"*"})

_PRAGMA_RE = re.compile(
    r"#\s*staticcheck:\s*(?P<kind>ignore-file|ignore)"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\s\*-]*)\])?"
)


@dataclass(frozen=True)
class Pragma:
    """One ``ignore`` comment: its line, the rules it names ("*" = every
    rule) and the lines it covers (None for ``ignore-file``: all)."""

    line: int
    rules: frozenset[str]
    covers: "frozenset[int] | None" = None

    def suppresses(self, rule: str, line: int) -> bool:
        return ("*" in self.rules or rule in self.rules) and (
            self.covers is None or line in self.covers
        )


@dataclass
class PragmaIndex:
    """Parsed suppressions for one module."""

    pragmas: list[Pragma] = field(default_factory=list)
    #: (line, pragma text) pairs whose rule list failed to parse
    malformed: list[tuple[int, str]] = field(default_factory=list)

    def suppressing(self, rule: str, line: int) -> list[Pragma]:
        """The pragmas that suppress *rule* on *line*."""
        return [p for p in self.pragmas if p.suppresses(rule, line)]


def _parse_rules(raw: "str | None") -> frozenset[str]:
    if raw is None:
        return ALL_RULES
    names = frozenset(name.strip() for name in raw.split(",") if name.strip())
    return names if names else ALL_RULES


def _iter_comments(source: str) -> "list[tuple[int, int, str]]":
    """(line, col, text) of every real COMMENT token.

    Tokenising (rather than splitting lines on ``#``) keeps pragma-like
    text inside string literals and docstrings from being treated as a
    pragma — this module's own regex would otherwise suppress itself.
    """
    out: list[tuple[int, int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The engine reports unparseable modules separately; pragmas
        # found before the bad token still count.
        pass
    return out


def _covered_lines(lines: "list[str]", lineno: int, col: int) -> frozenset[int]:
    """The pragma's own line and, for a comment-only line, the next code
    line (skipping blank lines and the rest of a wrapped justification
    comment), so statements can carry the suppression above them.
    Decorator lines are skipped through as well: findings on a decorated
    ``def``/``class`` anchor at the definition line, so a pragma above
    the decorator stack must reach it."""
    covered = [lineno]
    if col == 0 or not lines[lineno - 1][:col].strip():
        cursor = lineno + 1
        in_decorators = False
        while cursor <= len(lines):
            stripped = lines[cursor - 1].strip()
            covered.append(cursor)
            if stripped.startswith("@"):
                in_decorators = True
            elif stripped and not stripped.startswith("#"):
                if not in_decorators or stripped.startswith(
                    ("def ", "async def ", "class ")
                ):
                    break
            cursor += 1
    return frozenset(covered)


def parse_pragmas(source: str) -> PragmaIndex:
    """Extract the pragma index from a module's source text.

    Every pragma, well-formed or not, contains ``staticcheck:``; a module
    without that text is not tokenised at all (most modules have none).
    """
    index = PragmaIndex()
    if "staticcheck:" not in source:
        return index
    lines = source.splitlines()
    for lineno, col, text in _iter_comments(source):
        match = _PRAGMA_RE.search(text)
        if match is None:
            if "staticcheck:" in text:
                index.malformed.append((lineno, text.strip()))
            continue
        rules = _parse_rules(match.group("rules"))
        covers = (
            None
            if match.group("kind") == "ignore-file"
            else _covered_lines(lines, lineno, col)
        )
        index.pragmas.append(Pragma(lineno, rules, covers))
    return index
