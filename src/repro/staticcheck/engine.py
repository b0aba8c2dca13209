"""The pluggable AST lint engine.

A :class:`Rule` inspects one parsed module (:class:`ModuleContext`) and
yields :class:`~repro.staticcheck.findings.Finding` objects.  The
:class:`LintEngine` parses each file once, runs every rule over it,
applies ``# staticcheck: ignore[...]`` pragmas, and validates that
pragmas reference real rule names (a typo'd pragma would otherwise
silently suppress nothing while looking load-bearing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import StaticCheckError
from repro.staticcheck.findings import Finding, Severity, sort_findings
from repro.staticcheck.pragmas import PragmaIndex, parse_pragmas


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
    :meth:`check_module`.  ``name`` is the identity used by pragmas, the
    baseline, CLI ``--rules`` filters and reports.
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
        # does not run them (fork-safety, rules a --rules subset leaves
        # out): pragmas for those live on source lines this engine parses.
        self.known_rule_names = frozenset(known_rule_names)

    def rule_names(self) -> tuple[str, ...]:
        return tuple(rule.name for rule in self.rules)

    # ------------------------------------------------------------------
    def check_source(self, path: str, source: str) -> list[Finding]:
        """Lint one module given its source text (repo-relative *path*)."""
        return self.check_context(ModuleContext.from_source(path, source))

    def check_context(self, ctx: ModuleContext) -> list[Finding]:
        """Lint one parsed module."""
        findings: list[Finding] = []
        for rule in self.rules:
            for finding in rule.check_module(ctx):
                if ctx.pragmas.suppresses(finding.rule, finding.line):
                    finding = finding.with_flags(suppressed=True)
                findings.append(finding)
        findings.extend(self._pragma_findings(ctx))
        return sort_findings(findings)

    # ------------------------------------------------------------------
    def _pragma_findings(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Report malformed pragmas and pragmas naming unknown rules."""
        known = set(self.rule_names()) | self.known_rule_names
        unknown = ctx.pragmas.rules_mentioned() - known
        if unknown:
            # anchor on the first line that mentions an unknown rule
            for lineno, rules in sorted(ctx.pragmas.by_line.items()):
                bad = sorted(set(rules) & unknown)
                if bad:
                    yield Finding(
                        rule="invalid-pragma",
                        path=ctx.path,
                        line=lineno,
                        message=(
                            f"pragma suppresses unknown rule(s) {bad}; "
                            f"known rules: {sorted(known)}"
                        ),
                        severity=Severity.ERROR,
                        snippet=ctx.line_at(lineno),
                    )
            bad_file_wide = sorted(ctx.pragmas.file_wide & unknown)
            if bad_file_wide:
                yield Finding(
                    rule="invalid-pragma",
                    path=ctx.path,
                    line=1,
                    message=(
                        f"ignore-file pragma names unknown rule(s) "
                        f"{bad_file_wide}; known rules: {sorted(known)}"
                    ),
                    severity=Severity.ERROR,
                    snippet=ctx.line_at(1),
                )
        for lineno, text in ctx.pragmas.malformed:
            yield Finding(
                rule="invalid-pragma",
                path=ctx.path,
                line=lineno,
                message=f"unparseable staticcheck pragma: {text!r}",
                severity=Severity.ERROR,
                snippet=ctx.line_at(lineno),
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
