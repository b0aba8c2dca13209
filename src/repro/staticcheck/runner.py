"""File discovery and check orchestration shared by CLI, CI and tests.

:func:`run_project` is the full-repo ``repro check``: the per-module lint
rules over every module under ``src/repro`` plus the whole-program
``fork-safety`` rule, both over one parse of the tree, with the baseline
applied and its stale rows computed once over all findings.
:func:`run_lint` runs the per-module rules alone, over explicit files
(the pre-commit hook) or the whole tree.
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
from repro.staticcheck.engine import LintEngine, ModuleContext, Rule
from repro.staticcheck.findings import Finding, Severity, sort_findings
from repro.staticcheck.fork_safety import ForkSafetyRule
from repro.staticcheck.project import ProjectContext
from repro.staticcheck.rules import all_rules, select_rules
from repro.staticcheck.rules import rule_names as lint_rule_names


def all_rule_names() -> "tuple[str, ...]":
    """Every rule ``repro check`` runs: the lint rules, then fork-safety.

    All of them stay valid pragma targets under a ``--rules`` subset, so
    e.g. ``--rules determinism`` doesn't flag every
    ``ignore[precision-policy]`` in the tree as a typo.
    """
    return lint_rule_names() + (ForkSafetyRule.name,)


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


def _select(rule_names: "list[str] | None") -> "tuple[list[Rule], bool]":
    """The lint rules *rule_names* selects, and whether it selects
    fork-safety (everything when None)."""
    if rule_names is None:
        return all_rules(), True
    known = all_rule_names()
    unknown = [name for name in rule_names if name not in known]
    if unknown:
        raise StaticCheckError(
            f"unknown rule(s) {unknown}; available: {sorted(known)}"
        )
    lint_names = [name for name in rule_names if name != ForkSafetyRule.name]
    return select_rules(lint_names), len(lint_names) < len(rule_names)


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


def _lint(rules: "list[Rule]", contexts: "list[ModuleContext]") -> list[Finding]:
    engine = LintEngine(rules, known_rule_names=all_rule_names())
    return [f for ctx in contexts for f in engine.check_context(ctx)]


def _fork_safety(contexts: "list[ModuleContext]") -> list[Finding]:
    """``fork-safety`` findings, each pragma-suppressible on its primary line."""
    project = ProjectContext(contexts)
    findings: list[Finding] = []
    for finding in ForkSafetyRule().check_project(project):
        if project.by_path[finding.path].ctx.pragmas.suppresses(
            finding.rule, finding.line
        ):
            finding = finding.with_flags(suppressed=True)
        findings.append(finding)
    return findings


def _result(
    root: str,
    findings: "list[Finding]",
    files_checked: int,
    *,
    baseline: "Baseline | None",
    baseline_path: "str | os.PathLike | None",
    use_baseline: bool,
    compute_stale: bool,
) -> CheckResult:
    """Apply the baseline (loaded from *baseline_path*, default
    ``<root>/staticcheck-baseline.json``, unless an explicit one or
    ``use_baseline=False`` is given)."""
    findings = sort_findings(findings)
    if baseline is None and use_baseline:
        baseline = load_baseline(baseline_path or default_baseline_path(root))
    stale: list[dict] = []
    if baseline is not None:
        findings = baseline.apply(findings)
        if compute_stale:
            stale = baseline.stale_entries(findings)
    return CheckResult(
        findings=findings, files_checked=files_checked, stale_baseline=stale
    )


def run_lint(
    *,
    root: "str | None" = None,
    paths: "list[str] | None" = None,
    rules: "list[Rule] | None" = None,
    rule_names: "list[str] | None" = None,
    baseline: "Baseline | None" = None,
    baseline_path: "str | os.PathLike | None" = None,
    use_baseline: bool = True,
) -> CheckResult:
    """Run the per-module lint rules over explicit *paths* (default: every
    module under ``src/repro``).

    *paths* are files: absolute, relative to the working directory, or
    else relative to the repo root; a missing path or a directory raises
    :class:`~repro.errors.StaticCheckError`.
    ``fork-safety`` analyses the whole program, so selecting it here is
    an error too.  Stale baseline rows are reported only by the full
    check (:func:`run_project`): the baseline also holds rows this run
    does not look for.
    """
    root = root or repo_root()
    if rule_names is not None and ForkSafetyRule.name in rule_names:
        raise StaticCheckError(
            "fork-safety analyses the whole program, so it runs only "
            "on a full-repo check (no explicit paths)"
        )
    if rules is None:
        rules, _ = _select(rule_names)
    relpaths = iter_source_files(root) if paths is None else _relpaths(root, paths)
    contexts = _parse(root, relpaths)
    return _result(
        root,
        _lint(rules, contexts),
        len(contexts),
        baseline=baseline,
        baseline_path=baseline_path,
        use_baseline=use_baseline,
        compute_stale=False,
    )


def run_project(
    *,
    root: "str | None" = None,
    rule_names: "list[str] | None" = None,
    baseline: "Baseline | None" = None,
    baseline_path: "str | os.PathLike | None" = None,
    use_baseline: bool = True,
) -> CheckResult:
    """The full-repo check: every module under ``src/repro``, parsed once,
    through the lint rules and ``fork-safety``.

    *rule_names* selects a subset of :func:`all_rule_names`.  Stale
    baseline rows are computed only when every rule runs: under a subset
    the rows of the rules left out would all look stale.
    """
    root = root or repo_root()
    rules, fork = _select(rule_names)
    contexts = _parse(root, iter_source_files(root))
    findings = _lint(rules, contexts)
    if fork:
        findings += _fork_safety(contexts)
    return _result(
        root,
        findings,
        len(contexts),
        baseline=baseline,
        baseline_path=baseline_path,
        use_baseline=use_baseline,
        compute_stale=rule_names is None,
    )
