"""``repro.staticcheck`` — repo-aware static analysis.

Six rules guard the invariants the runtime stack depends on (see
``docs/static-analysis.md``):

* an AST **lint engine** (:mod:`repro.staticcheck.engine`) running five
  per-module rules — autodiff-bypass, precision-policy, determinism,
  concurrency, api-surface — with per-line ``# staticcheck: ignore[rule]``
  pragmas and a committed baseline for grandfathered findings, and
* one **whole-program rule**, fork-safety
  (:mod:`repro.staticcheck.fork_safety`), over a project-wide symbol
  table and call graph (:mod:`repro.staticcheck.project`).

A full-repo ``repro check`` (:func:`run_project`) runs all six over one
parse of the tree; the ``static-analysis`` CI job runs it.  Exports
resolve lazily (PEP 562) so importing :mod:`repro` never pays for the
checker.
"""

from typing import Any

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "ModuleContext",
    "LintEngine",
    "all_rules",
    "rule_names",
    "Baseline",
    "load_baseline",
    "write_baseline",
    "CheckResult",
    "run_lint",
    "run_project",
    "iter_source_files",
    "repo_root",
    "render_text",
    "render_json",
    "ProjectContext",
]

_EXPORTS = {
    "Finding": "repro.staticcheck.findings",
    "Severity": "repro.staticcheck.findings",
    "Rule": "repro.staticcheck.engine",
    "ModuleContext": "repro.staticcheck.engine",
    "LintEngine": "repro.staticcheck.engine",
    "all_rules": "repro.staticcheck.rules",
    "rule_names": "repro.staticcheck.rules",
    "Baseline": "repro.staticcheck.baseline",
    "load_baseline": "repro.staticcheck.baseline",
    "write_baseline": "repro.staticcheck.baseline",
    "CheckResult": "repro.staticcheck.runner",
    "run_lint": "repro.staticcheck.runner",
    "run_project": "repro.staticcheck.runner",
    "iter_source_files": "repro.staticcheck.runner",
    "repo_root": "repro.staticcheck.runner",
    "render_text": "repro.staticcheck.reporters",
    "render_json": "repro.staticcheck.reporters",
    "ProjectContext": "repro.staticcheck.project",
}


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
