"""``repro.staticcheck`` — repo-aware static analysis.

Complementary layers guard the invariants the runtime stack depends
on (see ``docs/static-analysis.md``):

* an AST **lint engine** (:mod:`repro.staticcheck.engine`) running
  per-module rules — autodiff-bypass, precision-policy, determinism,
  concurrency, api-surface — with per-line ``# staticcheck: ignore[rule]``
  pragmas and a committed baseline for grandfathered findings,
* a **whole-program layer** (:mod:`repro.staticcheck.project`) — symbol
  table, call graph and a CFG/dataflow framework
  (:mod:`repro.staticcheck.dataflow`) — running cross-module rules
  (lock-order, fork-safety, resource-lifecycle, precision-taint) under
  ``repro check --project``, and
* a **symbolic shape/dtype checker** (:mod:`repro.staticcheck.shapes`)
  that abstract-interprets the ``repro.nn`` model graphs with symbolic
  node/edge dims, catching wiring mismatches in encoder/conv/readout
  stacks before any training step runs.

All are wired into ``repro check`` (CLI) and the ``static-analysis`` CI
job.  Exports resolve lazily (PEP 562) so importing :mod:`repro` never
pays for the checker.
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
    "run_shapes",
    "changed_files",
    "filter_changed",
    "iter_source_files",
    "repo_root",
    "render_text",
    "render_json",
    "render_sarif",
    "ProjectContext",
    "ProjectRule",
    "all_project_rules",
    "project_rule_names",
    "check_multitask",
    "check_multitask_config",
    "check_all_shipped",
    "shipped_configs",
    "SymDim",
    "SymTensor",
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
    "run_shapes": "repro.staticcheck.runner",
    "changed_files": "repro.staticcheck.runner",
    "filter_changed": "repro.staticcheck.runner",
    "iter_source_files": "repro.staticcheck.runner",
    "repo_root": "repro.staticcheck.runner",
    "render_text": "repro.staticcheck.reporters",
    "render_json": "repro.staticcheck.reporters",
    "render_sarif": "repro.staticcheck.reporters",
    "ProjectContext": "repro.staticcheck.project",
    "ProjectRule": "repro.staticcheck.project_rules",
    "all_project_rules": "repro.staticcheck.project_rules",
    "project_rule_names": "repro.staticcheck.project_rules",
    "check_multitask": "repro.staticcheck.shapes",
    "check_multitask_config": "repro.staticcheck.shapes",
    "check_all_shipped": "repro.staticcheck.shapes",
    "shipped_configs": "repro.staticcheck.shapes",
    "SymDim": "repro.staticcheck.shapes",
    "SymTensor": "repro.staticcheck.shapes",
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
