"""Suppression pragmas: ``# staticcheck: ignore[rule]``.

Syntax (anywhere in a comment)::

    x = foo()  # staticcheck: ignore[precision-policy]
    y = bar()  # staticcheck: ignore[rule-a,rule-b] -- justification
    z = baz()  # staticcheck: ignore  (suppresses every rule on the line)

    # staticcheck: ignore-file[determinism] -- whole-module waiver

A pragma on its own comment line also covers the next code line (blank
lines and wrapped justification comments in between are skipped), so
multi-line statements can carry a suppression above them.  Above a
decorated ``def``/``class`` the coverage extends through the decorator
stack to the definition line, where such findings anchor.
``ignore-file`` applies to the whole module and is parsed anywhere, by
convention near the top.  Unknown rule names in a pragma are reported by
the engine as ``invalid-pragma`` findings rather than silently ignored.
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


@dataclass
class PragmaIndex:
    """Parsed suppressions for one module."""

    #: line number -> rule names suppressed there ("*" = all)
    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    #: module-wide suppressed rule names ("*" = all)
    file_wide: frozenset[str] = field(default_factory=frozenset)
    #: (line, pragma text) pairs whose rule list failed to parse
    malformed: list[tuple[int, str]] = field(default_factory=list)

    def suppresses(self, rule: str, line: int) -> bool:
        if "*" in self.file_wide or rule in self.file_wide:
            return True
        rules = self.by_line.get(line)
        return rules is not None and ("*" in rules or rule in rules)

    def rules_mentioned(self) -> set[str]:
        """Every explicit rule name used in a pragma (for validation)."""
        names: set[str] = set()
        for rules in self.by_line.values():
            names.update(rules)
        names.update(self.file_wide)
        names.discard("*")
        return names


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


def parse_pragmas(source: str) -> PragmaIndex:
    """Extract the pragma index from a module's source text.

    Every pragma, well-formed or not, contains ``staticcheck:``; a module
    without that text is not tokenised at all (most modules have none).
    """
    index = PragmaIndex()
    if "staticcheck:" not in source:
        return index
    for lineno, col, text in _iter_comments(source):
        match = _PRAGMA_RE.search(text)
        if match is None:
            if "staticcheck:" in text:
                index.malformed.append((lineno, text.strip()))
            continue
        rules = _parse_rules(match.group("rules"))
        if match.group("kind") == "ignore-file":
            index.file_wide = index.file_wide | rules
            continue
        covered = [lineno]
        # A pragma-only comment line also shields the next code line
        # (skipping blank lines and the rest of a wrapped justification
        # comment), so statements can carry the suppression above them.
        # Decorator lines are skipped through as well: findings on a
        # decorated ``def``/``class`` anchor at the definition line, so a
        # pragma above the decorator stack must reach it.
        lines = source.splitlines()
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
        for line in covered:
            existing = index.by_line.get(line, frozenset())
            index.by_line[line] = existing | rules
    return index
