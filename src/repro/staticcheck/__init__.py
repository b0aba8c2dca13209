"""``repro.staticcheck`` — repo-aware static analysis.

Four rules guard the invariants the runtime stack depends on (see
``docs/static-analysis.md``): an AST **lint engine**
(:mod:`repro.staticcheck.engine`) runs autodiff-bypass, precision-policy,
determinism and concurrency over each module.  A deliberate exception
carries a ``# staticcheck: ignore[rule] -- reason`` pragma on its line,
and a pragma that no longer suppresses anything is itself an error.

A full-repo ``repro check`` (:func:`run_lint`) runs all four over every
module under ``src/repro``; the ``static-analysis`` CI job runs it.
Exports resolve lazily (PEP 562) so importing :mod:`repro` never pays
for the checker.
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
    "CheckResult",
    "run_lint",
    "iter_source_files",
    "repo_root",
    "render_text",
    "render_json",
]

_EXPORTS = {
    "Finding": "repro.staticcheck.findings",
    "Severity": "repro.staticcheck.findings",
    "Rule": "repro.staticcheck.engine",
    "ModuleContext": "repro.staticcheck.engine",
    "LintEngine": "repro.staticcheck.engine",
    "all_rules": "repro.staticcheck.rules",
    "rule_names": "repro.staticcheck.rules",
    "CheckResult": "repro.staticcheck.runner",
    "run_lint": "repro.staticcheck.runner",
    "iter_source_files": "repro.staticcheck.runner",
    "repo_root": "repro.staticcheck.runner",
    "render_text": "repro.staticcheck.reporters",
    "render_json": "repro.staticcheck.reporters",
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
