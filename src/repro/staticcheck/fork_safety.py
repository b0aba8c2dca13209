"""``fork-safety``: state that crosses ``os.fork`` must be re-initialised.

``ServerPool`` forks workers while parent threads may hold locks; a lock
(or ``threading.local``) inherited mid-acquire deadlocks the child
forever, silently, under load.  The repo's convention is that the child
re-initialises every inherited lock before starting its own threads —
historically a hand-maintained list in ``pool.py``.  This rule makes the
list a checked invariant:

1. find every fork site (``pid = os.fork()`` with an ``if pid == 0:``
   child branch) and compute the child-reachable function set from the
   calls in that branch;
2. collect the lock-owning classes whose instances *cross the fork* —
   passed as a parameter into a child-entry function, or obtained in
   child code from a singleton accessor (a module-level function
   returning a module-global instance);
3. a class constructed inside the child (its ``__init__`` is
   child-reachable via a resolved constructor call) is exempt — fresh
   objects own fresh locks;
4. every remaining class must have **all** of its fork-hostile
   attributes (locks and ``threading.local``) re-initialised by some
   child-reachable code: a ``reinit_after_fork``-style method that
   assigns fresh ones, or a direct fresh-lock assignment.  Anything
   uncovered is reported at the fork site, with the attribute's defining
   assignment as the related location.

The rule is deliberately silent about the listener socket (inherited on
purpose — that *is* the design) and about ``SharedMemory`` mappings
(shared on purpose; see docs/serving.md "Shared-memory weight
lifecycle").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.staticcheck.engine import dotted_name
from repro.staticcheck.findings import Finding, RelatedLocation, Severity
from repro.staticcheck.project import FunctionInfo, ProjectContext
from repro.staticcheck.rules.concurrency import LOCK_FACTORIES, _field_default_factory

#: ``threading.local`` is not a lock but is equally fork-hostile: an
#: inherited instance carries the *parent's* per-thread slots.
FORK_HOSTILE_FACTORIES = frozenset(LOCK_FACTORIES | {"threading.local"})

#: class qualname -> {fork-hostile attribute: (path, line) of its first
#: defining assignment}, attributes in definition order
HostileAttrs = dict[str, dict[str, tuple[str, int]]]


def _is_fork_hostile(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and dotted_name(node.func) in FORK_HOSTILE_FACTORIES
    )


def collect_fork_hostile(project: ProjectContext) -> HostileAttrs:
    """Every class's fork-hostile attributes: ``self.<attr> = <factory>()``
    in any method, or a dataclass ``field(default_factory=<factory>)``."""
    hostile: HostileAttrs = {}
    for minfo in project.modules.values():
        for cinfo in minfo.classes.values():
            attrs: dict[str, tuple[str, int]] = {}
            for stmt in cinfo.node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None
                    and isinstance(stmt.target, ast.Name)
                    and _field_default_factory(stmt.value) in FORK_HOSTILE_FACTORIES
                ):
                    attrs.setdefault(stmt.target.id, (minfo.path, stmt.lineno))
            for method in cinfo.methods.values():
                for node in ast.walk(method.node):
                    if not (
                        isinstance(node, ast.Assign) and _is_fork_hostile(node.value)
                    ):
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.setdefault(target.attr, (minfo.path, node.lineno))
            if attrs:
                hostile[cinfo.qualname] = attrs
    return hostile


@dataclass
class _ForkSite:
    fn: FunctionInfo
    fork_line: int
    child_body: list[ast.stmt]
    #: functions the child branch calls directly
    roots: list[FunctionInfo] = field(default_factory=list)


def _find_fork_sites(project: ProjectContext) -> Iterator[_ForkSite]:
    for fn in project.functions.values():
        pid_names: dict[str, int] = {}  # name -> fork lineno
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and dotted_name(node.value.func) == "os.fork"
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        pid_names[target.id] = node.lineno
        if not pid_names:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id in pid_names
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and len(test.comparators) == 1
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value == 0
            ):
                site = _ForkSite(
                    fn=fn,
                    fork_line=pid_names[test.left.id],
                    child_body=node.body,
                )
                minfo = project.modules[fn.module]
                types = project._local_types(fn)
                for sub in node.body:
                    for call in ast.walk(sub):
                        if isinstance(call, ast.Call):
                            callee = project._resolve_call(
                                minfo, fn, types, call
                            )
                            if callee is not None:
                                site.roots.append(callee)
                yield site


class ForkSafetyRule:
    """The one whole-program rule: it needs the call graph, not one module.

    ``name`` is the identity used by pragmas, the baseline, ``--rules``
    and reports, as for the per-module rules.  A finding's pragma goes on
    its primary line, the fork site.
    """

    name = "fork-safety"
    severity = Severity.ERROR
    description = (
        "locks/threading.local instances created before os.fork and "
        "reachable in child code must be re-initialised in the child "
        "(fresh-lock assignment or a reinit_after_fork method)"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        hostile = collect_fork_hostile(project)
        for site in _find_fork_sites(project):
            yield from self._check_site(project, hostile, site)

    # ------------------------------------------------------------------
    def _check_site(
        self, project: ProjectContext, hostile: HostileAttrs, site: _ForkSite
    ) -> Iterator[Finding]:
        reachable = project.reachable_from(
            [root.qualname for root in site.roots]
        )
        inherited = self._inherited_classes(project, hostile, site, reachable)
        constructed = self._constructed_in_child(project, reachable)
        covered = self._reinitialised_attrs(project, site, reachable)

        for cls_qual in sorted(inherited):
            if cls_qual in constructed:
                continue
            attrs = hostile[cls_qual]
            missing = [attr for attr in attrs if (cls_qual, attr) not in covered]
            if not missing:
                continue
            related = tuple(
                RelatedLocation(
                    path=attrs[attr][0],
                    line=attrs[attr][1],
                    snippet=_snippet(project, *attrs[attr]),
                    note=f"fork-hostile attribute {attr!r} defined here",
                )
                for attr in missing
            )
            yield Finding(
                rule=self.name,
                path=site.fn.path,
                line=site.fork_line,
                message=(
                    f"{cls_qual} crosses this fork into the child but "
                    f"attribute(s) {missing} (locks/threading.local created "
                    "pre-fork, possibly held by parent threads that do not "
                    "exist in the child) are never re-initialised on the "
                    "child path; call its reinit_after_fork() (or assign "
                    "fresh locks) before the child starts threads"
                ),
                severity=self.severity,
                snippet=_snippet(project, site.fn.path, site.fork_line),
                related=related,
            )

    # ------------------------------------------------------------------
    def _inherited_classes(
        self,
        project: ProjectContext,
        hostile: HostileAttrs,
        site: _ForkSite,
        reachable: set[str],
    ) -> set[str]:
        inherited: set[str] = set()
        # (a) typed parameters of the child-entry functions
        for root in site.roots:
            types = project._local_types(root)
            for cls_qual in types.values():
                if cls_qual in hostile:
                    inherited.add(cls_qual)
        # (b) singleton accessors called from child-reachable code:
        #     a reachable function whose return annotation is a
        #     lock-owning class and whose body returns a module global
        for qual in reachable:
            fn = project.functions.get(qual)
            if fn is None:
                continue
            cls_qual = project._returned_class(fn)
            if cls_qual is None or cls_qual not in hostile:
                continue
            if self._returns_module_global(project, fn):
                inherited.add(cls_qual)
        return inherited

    def _returns_module_global(
        self, project: ProjectContext, fn: FunctionInfo
    ) -> bool:
        if fn.class_name is not None:
            return False
        minfo = project.modules[fn.module]
        module_globals = {
            target.id
            for node in minfo.ctx.tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Return)
                and isinstance(node.value, ast.Name)
                and node.value.id in module_globals
            ):
                return True
        return False

    # ------------------------------------------------------------------
    def _constructed_in_child(
        self, project: ProjectContext, reachable: set[str]
    ) -> set[str]:
        constructed: set[str] = set()
        for qual in reachable:
            fn = project.functions.get(qual)
            if fn is None:
                continue
            for _, callee in project.calls_in(fn):
                if callee.name == "__init__" and callee.class_name is not None:
                    constructed.add(
                        callee.qualname.rsplit(".", 1)[0]
                    )
        return constructed

    # ------------------------------------------------------------------
    def _reinitialised_attrs(
        self,
        project: ProjectContext,
        site: _ForkSite,
        reachable: set[str],
    ) -> set[tuple[str, str]]:
        """(class qualname, attr) pairs re-initialised on the child path.

        Counts fresh-factory assignments both in child-reachable
        functions and directly in the child branch body:

        * ``self.<attr> = threading.Lock()`` inside a method of the class
          (a ``reinit_after_fork``-style method — the method being
          child-reachable is what proves the child calls it);
        * ``<obj>.<attr> = threading.Lock()`` where ``obj``'s class is
          inferable (covers the historical reach-into-privates style).
        """
        covered: set[tuple[str, str]] = set()

        def scan(fn_qual: "str | None", body: Iterable[ast.stmt]) -> None:
            fn = project.functions.get(fn_qual) if fn_qual else None
            for node in ast.walk(ast.Module(body=list(body), type_ignores=[])):
                if not isinstance(node, ast.Assign):
                    continue
                if not _is_fork_hostile(node.value):
                    continue
                for target in node.targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    base = target.value
                    cls_qual: "str | None" = None
                    if isinstance(base, ast.Name):
                        if (
                            base.id == "self"
                            and fn is not None
                            and fn.class_name is not None
                        ):
                            cls_qual = f"{fn.module}.{fn.class_name}"
                        elif fn is not None:
                            cls_qual = project._local_types(fn).get(base.id)
                    elif isinstance(base, ast.Call) and fn is not None:
                        accessor = project._resolve_call(
                            project.modules[fn.module],
                            fn,
                            project._local_types(fn),
                            base,
                        )
                        if accessor is not None:
                            cls_qual = project._returned_class(accessor)
                    if cls_qual is not None:
                        covered.add((cls_qual, target.attr))

        for qual in reachable:
            fn = project.functions.get(qual)
            if fn is not None:
                scan(qual, fn.node.body)
        scan(site.fn.qualname, site.child_body)
        return covered


def _snippet(project: ProjectContext, path: str, line: int) -> str:
    info = project.by_path.get(path)
    return info.ctx.line_at(line) if info is not None else ""
