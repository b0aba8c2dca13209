"""Text and JSON reporters for check results."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.runner import CheckResult


def render_text(result: "CheckResult", *, verbose: bool = False) -> str:
    """Human-readable report: one line per actionable finding."""
    lines: list[str] = []
    for finding in result.findings:
        if finding.suppressed and not verbose:
            continue
        if finding.baselined and not verbose:
            continue
        tag = finding.severity.value
        if finding.suppressed:
            tag += ", pragma"
        elif finding.baselined:
            tag += ", baselined"
        lines.append(
            f"{finding.location()}: [{finding.rule}] ({tag}) {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    lines.append(summary_line(result))
    return "\n".join(lines)


def summary_line(result: "CheckResult") -> str:
    parts = [
        f"{result.files_checked} file(s) checked",
        f"{len(result.new_errors())} new error(s)",
    ]
    warnings = [f for f in result.active() if f.severity.value == "warning"]
    if warnings:
        parts.append(f"{len(warnings)} warning(s)")
    if result.baselined_count():
        parts.append(f"{result.baselined_count()} baselined")
    if result.suppressed_count():
        parts.append(f"{result.suppressed_count()} pragma-suppressed")
    if result.stale_baseline:
        parts.append(f"{len(result.stale_baseline)} stale baseline entr(y/ies)")
    return "staticcheck: " + ", ".join(parts)


def render_json(result: "CheckResult") -> str:
    """Machine-readable report (the ``--format json`` body)."""
    payload = {
        "files_checked": result.files_checked,
        "findings": [f.as_dict() for f in result.findings],
        "new_errors": len(result.new_errors()),
        "baselined": result.baselined_count(),
        "suppressed": result.suppressed_count(),
        "stale_baseline": result.stale_baseline,
        "ok": result.ok(),
    }
    return json.dumps(payload, indent=2)

