"""The pluggable AST lint engine.

A :class:`Rule` inspects one parsed module (:class:`ModuleContext`) and
yields :class:`~repro.staticcheck.findings.Finding` objects.  The
:class:`LintEngine` parses each file once, runs every rule over it,
applies ``# staticcheck: ignore[...]`` pragmas, and reports the pragmas
that cannot be load-bearing: one naming a rule that does not exist
(``invalid-pragma``) and, when the engine runs every rule, one that
suppresses no finding (``unused-pragma``).  Either would otherwise
silently excuse nothing while looking as if it did.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

from repro.errors import StaticCheckError
from repro.staticcheck.findings import Finding, Severity, sort_findings
from repro.staticcheck.pragmas import Pragma, PragmaIndex, parse_pragmas


@dataclass
class ModuleContext:
    """Everything a rule needs about one module, parsed once."""

    path: str  # repo-relative, forward slashes
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    pragmas: PragmaIndex = field(default_factory=PragmaIndex)

    @classmethod
    def from_source(cls, path: str, source: str) -> "ModuleContext":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise StaticCheckError(f"cannot parse {path!r}: {exc}") from exc
        return cls(
            path=path,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            pragmas=parse_pragmas(source),
        )

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def in_package(self, *parts: str) -> bool:
        """True when the module lives under ``src/repro/<parts...>``."""
        prefix = "/".join(("src", "repro", *parts))
        return self.path == prefix or self.path.startswith(prefix + "/")

    def is_any(self, *names: str) -> bool:
        """True when the module is exactly one of ``src/repro/<name>``."""
        return any(self.path == f"src/repro/{name}" for name in names)


class Rule:
    """Base class for lint rules.

    Subclasses set ``name`` / ``severity`` / ``description`` and implement
    :meth:`check_module`.  ``name`` is the identity used by pragmas,
    CLI ``--rules`` filters and reports.
    """

    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: ModuleContext,
        node: "ast.AST | None",
        message: str,
        *,
        line: int | None = None,
        severity: Severity | None = None,
    ) -> Finding:
        lineno = line if line is not None else getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            rule=self.name,
            path=ctx.path,
            line=lineno,
            col=col,
            message=message,
            severity=severity or self.severity,
            snippet=ctx.line_at(lineno),
        )


class LintEngine:
    """Run a set of rules over source files, applying pragmas."""

    def __init__(
        self,
        rules: Sequence[Rule],
        known_rule_names: Iterable[str] = (),
    ):
        names = [rule.name for rule in rules]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise StaticCheckError(f"duplicate rule names: {sorted(dupes)}")
        self.rules = list(rules)
        # Rule names that are valid pragma targets even though this engine
        # does not run them (rules a --rules subset leaves out): pragmas
        # for those live on source lines this engine parses.
        self.known_rule_names = frozenset(known_rule_names)
        # Only an engine that runs every rule it knows can tell a pragma
        # that suppresses nothing from one whose rule did not run.
        self.judges_pragmas = self.known_rule_names <= set(names)

    def rule_names(self) -> tuple[str, ...]:
        return tuple(rule.name for rule in self.rules)

    # ------------------------------------------------------------------
    def check_source(self, path: str, source: str) -> list[Finding]:
        """Lint one module given its source text (repo-relative *path*)."""
        return self.check_context(ModuleContext.from_source(path, source))

    def check_context(self, ctx: ModuleContext) -> list[Finding]:
        """Lint one parsed module."""
        findings: list[Finding] = []
        # (pragma, the name in it that matched: the rule, or "*")
        used: set[tuple[Pragma, str]] = set()
        for rule in self.rules:
            for finding in rule.check_module(ctx):
                pragmas = ctx.pragmas.suppressing(finding.rule, finding.line)
                if pragmas:
                    finding = replace(finding, suppressed=True)
                for pragma in pragmas:
                    name = finding.rule if finding.rule in pragma.rules else "*"
                    used.add((pragma, name))
                findings.append(finding)
        findings.extend(self._pragma_findings(ctx, used))
        return sort_findings(findings)

    # ------------------------------------------------------------------
    def _pragma_findings(
        self, ctx: ModuleContext, used: "set[tuple[Pragma, str]]"
    ) -> Iterator[Finding]:
        """Report malformed pragmas, pragmas naming unknown rules and,
        when every rule ran, the rule names that suppressed nothing."""
        known = set(self.rule_names()) | self.known_rule_names

        def finding(rule: str, line: int, message: str) -> Finding:
            return Finding(
                rule=rule,
                path=ctx.path,
                line=line,
                message=message,
                severity=Severity.ERROR,
                snippet=ctx.line_at(line),
            )

        for pragma in ctx.pragmas.pragmas:
            unknown = sorted(pragma.rules - known - {"*"})
            if unknown:
                kind = "ignore-file pragma" if pragma.covers is None else "pragma"
                yield finding(
                    "invalid-pragma",
                    pragma.line,
                    f"{kind} names unknown rule(s) {unknown}; "
                    f"known rules: {sorted(known)}",
                )
            if not self.judges_pragmas:
                continue
            idle = sorted(
                name
                for name in pragma.rules - set(unknown)
                if (pragma, name) not in used
            )
            if idle:
                what = "any rule" if idle == ["*"] else f"rule(s) {idle}"
                yield finding(
                    "unused-pragma",
                    pragma.line,
                    f"pragma suppresses no finding of {what}; delete it, "
                    "or the rule names that no longer fire",
                )
        for lineno, text in ctx.pragmas.malformed:
            yield finding(
                "invalid-pragma", lineno, f"unparseable staticcheck pragma: {text!r}"
            )


# ----------------------------------------------------------------------
# Shared AST helpers used by several rules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """``np.random.default_rng`` -> that string; '' for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def assigned_names(target: ast.AST) -> Iterator[str]:
    """Plain names bound by an assignment target (tuples flattened)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from assigned_names(elt)


def is_mutable_literal(node: ast.AST) -> bool:
    """``{}``/``[]``/``set()``/``dict()``/``list()``/comprehensions."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
    return False
