"""File discovery and check orchestration shared by CLI, CI and tests.

:func:`run_lint` is ``repro check``: the lint rules over every module
under ``src/repro`` (CI) or over explicit files (the pre-commit hook),
with the baseline applied.  A full run, every rule over the whole tree,
also reports the baseline rows no finding matches any more.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import StaticCheckError
from repro.staticcheck.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    load_baseline,
)
from repro.staticcheck.engine import LintEngine, ModuleContext
from repro.staticcheck.findings import Finding, Severity, sort_findings
from repro.staticcheck.rules import rule_names as known_rule_names
from repro.staticcheck.rules import select_rules


def repo_root() -> str:
    """The repository root, derived from the installed package location.

    ``src/repro/staticcheck/runner.py`` -> three parents up.  Works from
    any working directory, which is what the CLI, pre-commit hook and
    tests all rely on.
    """
    here = os.path.abspath(__file__)
    return os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(here))))


def default_baseline_path(root: "str | None" = None) -> str:
    return os.path.join(root or repo_root(), DEFAULT_BASELINE_NAME)


def iter_source_files(
    root: "str | None" = None, subdir: str = os.path.join("src", "repro")
) -> list[str]:
    """Repo-relative (posix) paths of every library module under *subdir*."""
    root = root or repo_root()
    base = os.path.join(root, subdir)
    out: list[str] = []
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, filename), root)
            out.append(rel.replace(os.sep, "/"))
    return out


@dataclass
class CheckResult:
    """Outcome of one check run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    stale_baseline: list[dict] = field(default_factory=list)

    def active(self) -> list[Finding]:
        """Findings that are neither pragma-suppressed nor baselined."""
        return [f for f in self.findings if not f.suppressed and not f.baselined]

    def new_errors(self) -> list[Finding]:
        return [f for f in self.active() if f.severity is Severity.ERROR]

    def suppressed_count(self) -> int:
        return sum(1 for f in self.findings if f.suppressed)

    def baselined_count(self) -> int:
        return sum(1 for f in self.findings if f.baselined)

    def ok(self) -> bool:
        return not self.new_errors()


def _relpaths(root: str, paths: "list[str]") -> list[str]:
    """Repo-relative paths of explicit files; a missing path or a
    directory is a usage error.

    A relative path is taken from the working directory when it exists
    there, and from *root* otherwise, so both ``repro check nn/loss.py``
    run inside ``src/repro`` and the pre-commit hook's root-relative
    paths name the file they mean.
    """
    out: list[str] = []
    for path in paths:
        from_root = not os.path.isabs(path) and not os.path.exists(path)
        full = os.path.abspath(os.path.join(root, path) if from_root else path)
        if os.path.isdir(full):
            raise StaticCheckError(
                f"{path}: is a directory; name files, or give no paths "
                "to check all of src/repro"
            )
        if not os.path.isfile(full):
            raise StaticCheckError(f"{path}: no such file")
        out.append(os.path.relpath(full, root).replace(os.sep, "/"))
    return out


def _parse(root: str, relpaths: "list[str]") -> list[ModuleContext]:
    contexts: list[ModuleContext] = []
    for rel in relpaths:
        full = os.path.join(root, rel.replace("/", os.sep))
        with open(full, encoding="utf-8") as handle:
            contexts.append(ModuleContext.from_source(rel, handle.read()))
    return contexts


def run_lint(
    *,
    root: "str | None" = None,
    paths: "list[str] | None" = None,
    rule_names: "list[str] | None" = None,
    baseline: "Baseline | None" = None,
    baseline_path: "str | os.PathLike | None" = None,
    use_baseline: bool = True,
) -> CheckResult:
    """Run the lint rules *rule_names* (default: all) over *paths*
    (default: every module under ``src/repro``).

    *paths* are files: absolute, relative to the working directory, or
    else relative to the repo root; a missing path or a directory raises
    :class:`~repro.errors.StaticCheckError`.  The baseline is loaded from
    *baseline_path* (default ``<root>/staticcheck-baseline.json``) unless
    an explicit one or ``use_baseline=False`` is given.  Stale baseline
    rows are reported only by a full run: a run over some files or some
    rules does not look for the other rows, which would all look stale.
    """
    root = root or repo_root()
    rules = select_rules(rule_names)
    relpaths = iter_source_files(root) if paths is None else _relpaths(root, paths)
    contexts = _parse(root, relpaths)
    # every rule stays a valid pragma target under a --rules subset, so
    # e.g. --rules determinism doesn't flag ignore[precision-policy]
    engine = LintEngine(rules, known_rule_names=known_rule_names())
    findings = sort_findings(
        [f for ctx in contexts for f in engine.check_context(ctx)]
    )
    if baseline is None and use_baseline:
        baseline = load_baseline(baseline_path or default_baseline_path(root))
    stale: list[dict] = []
    if baseline is not None:
        findings = baseline.apply(findings)
        if paths is None and rule_names is None:
            stale = baseline.stale_entries(findings)
    return CheckResult(
        findings=findings, files_checked=len(contexts), stale_baseline=stale
    )
