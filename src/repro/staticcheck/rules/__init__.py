"""Rule registry: every repo-specific lint rule, instantiated fresh.

Adding a rule = writing a :class:`~repro.staticcheck.engine.Rule`
subclass in a module here and listing it in :data:`RULE_CLASSES`.
"""

from __future__ import annotations

from repro.errors import StaticCheckError
from repro.staticcheck.engine import Rule
from repro.staticcheck.rules.autodiff import AutodiffBypassRule
from repro.staticcheck.rules.precision import PrecisionPolicyRule
from repro.staticcheck.rules.determinism import DeterminismRule
from repro.staticcheck.rules.concurrency import ConcurrencyRule

RULE_CLASSES: tuple[type[Rule], ...] = (
    AutodiffBypassRule,
    PrecisionPolicyRule,
    DeterminismRule,
    ConcurrencyRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in RULE_CLASSES]


def rule_names() -> tuple[str, ...]:
    return tuple(cls.name for cls in RULE_CLASSES)


def select_rules(names: "list[str] | None") -> list[Rule]:
    """Rules filtered to *names* (all when None).

    Raises
    ------
    StaticCheckError
        For unknown rule names; the message lists the registry.
    """
    rules = all_rules()
    if names is None:
        return rules
    known = {rule.name: rule for rule in rules}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise StaticCheckError(
            f"unknown rule(s) {unknown}; available: {sorted(known)}"
        )
    return [known[name] for name in names]
