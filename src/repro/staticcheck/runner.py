"""File discovery and check orchestration shared by CLI, CI and tests."""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass, field

from repro.staticcheck.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    load_baseline,
)
from repro.staticcheck.engine import LintEngine, Rule
from repro.staticcheck.findings import Finding, Severity, sort_findings
from repro.staticcheck.rules import select_rules


def _extra_pragma_rule_names() -> "tuple[str, ...]":
    """Rule names valid in pragmas beyond the rules a run selects.

    Whole-program rules and the shape checker report through the same
    pragma machinery but don't run inside :class:`LintEngine`, and a
    ``--rules`` selection runs only a subset of the lint registry; the
    *full* registry stays pragma-valid so e.g. ``--rules lock-order``
    doesn't flag every ``ignore[precision-policy]`` in the tree as a
    typo.
    """
    from repro.staticcheck.project_rules import project_rule_names
    from repro.staticcheck.rules import rule_names

    return rule_names() + project_rule_names() + ("shape-contract",)


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
    """Outcome of a lint and/or shape run."""

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

    def merge(self, other: "CheckResult") -> "CheckResult":
        return CheckResult(
            findings=sort_findings(self.findings + other.findings),
            files_checked=self.files_checked + other.files_checked,
            stale_baseline=self.stale_baseline + other.stale_baseline,
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
    compute_stale: bool = True,
) -> CheckResult:
    """Run the lint rules over the repo (or explicit *paths*).

    *paths* are repo-relative or absolute file paths; directories are not
    expanded (use :func:`iter_source_files`).  The baseline is loaded
    from *baseline_path* (default ``<root>/staticcheck-baseline.json``)
    unless an explicit :class:`Baseline` or ``use_baseline=False`` is
    given.  ``compute_stale=False`` defers stale-entry detection to a
    caller that will merge in more findings (project mode computes stale
    over the lint+project union).
    """
    root = root or repo_root()
    engine = LintEngine(
        rules if rules is not None else select_rules(rule_names),
        known_rule_names=_extra_pragma_rule_names(),
    )
    if paths is None:
        relpaths = iter_source_files(root)
    else:
        relpaths = []
        for path in paths:
            full = path if os.path.isabs(path) else os.path.join(root, path)
            rel = os.path.relpath(os.path.abspath(full), root)
            relpaths.append(rel.replace(os.sep, "/"))
    findings = engine.check_files(root, relpaths)
    stale: list[dict] = []
    if baseline is None and use_baseline:
        baseline = load_baseline(baseline_path or default_baseline_path(root))
    if baseline is not None:
        findings = baseline.apply(findings)
        # Stale detection only makes sense over a full-repo, full-registry
        # run; a partial file list (or a --rules subset) would mark every
        # entry outside the selection stale.
        if paths is None and compute_stale and rules is None and rule_names is None:
            stale = baseline.stale_entries(findings)
    return CheckResult(
        findings=findings, files_checked=len(relpaths), stale_baseline=stale
    )


def run_project(
    *,
    root: "str | None" = None,
    rule_names: "list[str] | None" = None,
    baseline: "Baseline | None" = None,
    baseline_path: "str | os.PathLike | None" = None,
    use_baseline: bool = True,
    lint_result: "CheckResult | None" = None,
) -> CheckResult:
    """Run the whole-program rules over the full repo.

    Builds the project-wide symbol table and call graph, runs every
    selected :class:`~repro.staticcheck.project_rules.ProjectRule`,
    applies each finding's primary-file pragmas and the shared baseline.

    When *lint_result* (a per-module run over the same tree, ideally with
    ``compute_stale=False``) is given, the two are merged: lint
    ``precision-policy`` findings inside serving-reachable functions are
    dropped — ``precision-taint`` supersedes the literal scan there —
    and stale baseline entries are computed once over the combined
    findings.
    """
    from repro.staticcheck.project import ProjectContext
    from repro.staticcheck.project_rules import select_project_rules
    from repro.staticcheck.project_rules.precision_taint import (
        PrecisionTaintRule,
    )

    root = root or repo_root()
    project = ProjectContext.from_files(root, iter_source_files(root))
    findings: list[Finding] = []
    for rule in select_project_rules(rule_names):
        for finding in rule.check_project(project):
            info = project.by_path.get(finding.path)
            if info is not None and info.ctx.pragmas.suppresses(
                finding.rule, finding.line
            ):
                finding = finding.with_flags(suppressed=True)
            findings.append(finding)
    if baseline is None and use_baseline:
        baseline = load_baseline(baseline_path or default_baseline_path(root))
    if baseline is not None:
        findings = baseline.apply(findings)
    result = CheckResult(
        findings=sort_findings(findings),
        files_checked=len(project.by_path),
    )
    if lint_result is None:
        return result
    spans = PrecisionTaintRule().superseded_spans(project)
    kept = [
        f
        for f in lint_result.findings
        if not (
            f.rule == "precision-policy"
            and any(lo <= f.line <= hi for lo, hi in spans.get(f.path, ()))
        )
    ]
    merged = CheckResult(
        findings=sort_findings(kept + result.findings),
        files_checked=lint_result.files_checked,
        stale_baseline=lint_result.stale_baseline,
    )
    # Same full-registry caveat as run_lint: under a --rules subset the
    # unselected rules' entries would all look stale.
    if baseline is not None and rule_names is None and not merged.stale_baseline:
        merged.stale_baseline = baseline.stale_entries(merged.findings)
    return merged


def changed_files(base: str, *, root: "str | None" = None) -> "set[str]":
    """Repo-relative paths changed since *base* (per git), plus untracked.

    Backs ``repro check --changed BASE``: CI diffs against the merge
    target so a PR is gated only on findings it could have introduced,
    while the full run stays advisory.
    """
    root = root or repo_root()
    changed: set[str] = set()
    for args in (
        ["git", "diff", "--name-only", base, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            args, cwd=root, capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            from repro.errors import StaticCheckError

            raise StaticCheckError(
                f"{' '.join(args)!r} failed: {proc.stderr.strip()}"
            )
        changed.update(
            line.strip().replace(os.sep, "/")
            for line in proc.stdout.splitlines()
            if line.strip()
        )
    return changed


def filter_changed(result: CheckResult, changed: "set[str]") -> CheckResult:
    """Keep findings touching any changed file (primary or related).

    A two-file finding (say a lock-order cycle) is kept when *either*
    side changed — editing one end of a cycle can introduce it even
    though the other file is untouched.  Stale-baseline entries are
    dropped: they describe the full tree, not the diff.
    """
    kept = [
        f
        for f in result.findings
        if f.path in changed or any(r.path in changed for r in f.related)
    ]
    return CheckResult(
        findings=kept,
        files_checked=result.files_checked,
        stale_baseline=[],
    )


def run_shapes(*, configs: "list | None" = None) -> CheckResult:
    """Run the symbolic shape/dtype checker over the shipped model configs."""
    from repro.staticcheck.shapes import check_all_shipped, check_multitask_config

    if configs is None:
        findings = check_all_shipped()
        from repro.staticcheck.shapes import shipped_configs

        count = len(shipped_configs())
    else:
        findings = []
        for config in configs:
            findings.extend(check_multitask_config(config))
        count = len(configs)
    return CheckResult(findings=sort_findings(findings), files_checked=count)
