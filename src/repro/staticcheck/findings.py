"""Finding and severity types shared by the lint engine and reporters."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How seriously a finding should be taken.

    ``ERROR`` findings fail ``repro check`` (and CI) unless suppressed by
    a pragma; ``WARNING`` findings are reported but never affect the exit
    code.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding.

    ``path`` is repo-relative with forward slashes.  ``snippet`` is
    the stripped source line the finding anchors to.
    """

    rule: str
    path: str
    line: int
    message: str
    severity: Severity = Severity.ERROR
    col: int = 0
    snippet: str = ""
    suppressed: bool = field(default=False, compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}" if self.line else self.path

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
        }


def sort_findings(findings: "list[Finding]") -> "list[Finding]":
    """Deterministic report order: path, then line, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
