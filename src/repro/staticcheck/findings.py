"""Finding and severity types shared by the lint engine, baseline and reporters."""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace


class Severity(enum.Enum):
    """How seriously a finding should be taken.

    ``ERROR`` findings fail ``repro check`` (and CI) unless baselined or
    suppressed by a pragma; ``WARNING`` findings are reported but never
    affect the exit code.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding.

    ``path`` is repo-relative with forward slashes.  ``snippet`` is
    the stripped source line the finding anchors to; the baseline
    fingerprint hashes it instead of the line number so findings survive
    unrelated edits above them.
    """

    rule: str
    path: str
    line: int
    message: str
    severity: Severity = Severity.ERROR
    col: int = 0
    snippet: str = ""
    suppressed: bool = field(default=False, compare=False)
    baselined: bool = field(default=False, compare=False)

    def fingerprint(self) -> str:
        """Stable identity for baseline matching.

        Hashes rule + path + normalised snippet — never a line number,
        so entries survive unrelated edits above the finding.
        """
        parts = [self.rule, self.path, " ".join(self.snippet.split())]
        payload = "\x1f".join(parts)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

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
            "fingerprint": self.fingerprint(),
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }

    def with_flags(
        self, *, suppressed: bool | None = None, baselined: bool | None = None
    ) -> "Finding":
        return replace(
            self,
            suppressed=self.suppressed if suppressed is None else suppressed,
            baselined=self.baselined if baselined is None else baselined,
        )


def sort_findings(findings: "list[Finding]") -> "list[Finding]":
    """Deterministic report order: path, then line, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
