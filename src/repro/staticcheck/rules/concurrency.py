"""``concurrency``: shared mutable state in the threaded subsystems.

``repro.serve``, ``repro.obs`` and ``repro.api`` run under concurrent
load (HTTP handler threads, the micro-batching executor, instrumented
training threads).  This rule enforces the repo's locking convention on
those packages:

* locks and thread-locals come from :mod:`repro.forksafe`, which makes
  them free and empty in a forked pool worker: a direct
  ``threading.Lock`` / ``RLock`` / ``Condition`` / ``Semaphore`` /
  ``BoundedSemaphore`` / ``local`` call (or ``default_factory``, or
  ``from threading import``) is flagged, at module level as on an
  attribute;
* module-level mutable containers must only be mutated inside a
  ``with <lock>`` block over a module-level lock;
* a class whose instances carry mutable containers (``self.x = {}`` in
  ``__init__``, or a dataclass ``field(default_factory=dict)``) must own
  a lock attribute, and methods must mutate those containers under
  ``with self.<lock>``;
* bare ``.acquire()`` calls are flagged — ``with`` (or try/finally) is
  the only sanctioned way to hold a lock.

Heuristics, not proofs: construction-time mutation (``__init__`` /
``__post_init__``) is exempt, and single-threaded-by-design state can be
waived with a pragma carrying the justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.staticcheck.engine import (
    ModuleContext,
    Rule,
    assigned_names,
    dotted_name,
    is_mutable_literal,
)
from repro.staticcheck.findings import Finding

#: Packages under src/repro that serve concurrent traffic.
THREADED_PACKAGES = ("serve", "obs", "api")

#: The lock factories of :mod:`repro.forksafe`.
FORKSAFE_LOCKS = ("Lock", "RLock", "Condition")

#: ``threading`` primitives the threaded packages must not build
#: directly: a forked worker would inherit each as the fork found it.
THREADING_PRIMITIVES = frozenset(
    f"threading.{name}"
    for name in (*FORKSAFE_LOCKS, "Semaphore", "BoundedSemaphore", "local")
)

#: What counts as a lock when checking ``with`` scopes.  A direct
#: ``threading`` lock still scopes its ``with`` blocks (it is reported
#: once, as a direct primitive, not again as a missing lock).
LOCK_FACTORIES = frozenset(
    {f"forksafe.{name}" for name in FORKSAFE_LOCKS}
    | (THREADING_PRIMITIVES - {"threading.local"})
    | {
        # process-shared locks: a parent thread holding one at the fork
        # releases it for every process, so they need no factory
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Condition",
        "multiprocessing.Semaphore",
        "multiprocessing.BoundedSemaphore",
    }
)

MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "collections.defaultdict", "collections.OrderedDict",
     "collections.Counter", "collections.deque"}
)

#: Method calls that mutate a container in place.
MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

INIT_METHODS = ("__init__", "__post_init__")

#: Factory methods on the obs metrics registry that hand out live metric
#: objects.  Direct ``.value`` writes on those objects bypass the registry
#: lock, so outside ``repro.obs`` they must go through the helpers.
METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})


def _is_lock_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and dotted_name(node.func) in LOCK_FACTORIES


def _field_default_factory(node: ast.AST) -> str:
    """Dotted name of ``field(default_factory=X)``, or ''."""
    if not (isinstance(node, ast.Call) and dotted_name(node.func).endswith("field")):
        return ""
    for kw in node.keywords:
        if kw.arg == "default_factory":
            return dotted_name(kw.value)
    return ""


@dataclass
class _ClassInfo:
    node: ast.ClassDef
    mutable_attrs: dict[str, int] = field(default_factory=dict)  # attr -> lineno
    lock_attrs: set[str] = field(default_factory=set)


def _self_attr(node: ast.AST) -> "str | None":
    """``self.x`` -> ``"x"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _MutationScanner(ast.NodeVisitor):
    """Find mutations of watched names/attrs outside their lock scope.

    ``watched`` maps a key (``("name", n)`` for module globals,
    ``("self", attr)`` for instance attrs) to nothing in particular; the
    scanner records mutation nodes for keys seen while no watched lock is
    held.  Locks: ``("name", n)`` module locks, ``("self", attr)``
    instance locks.
    """

    def __init__(self, watched: set, locks: set):
        self.watched = watched
        self.locks = locks
        self.held = 0
        self.hits: list[tuple[tuple, ast.AST]] = []

    # -- lock scope -----------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        holds = any(
            self._lock_key(item.context_expr) in self.locks
            for item in node.items
        )
        if holds:
            self.held += 1
        self.generic_visit(node)
        if holds:
            self.held -= 1

    def _lock_key(self, expr: ast.AST) -> tuple:
        if isinstance(expr, ast.Name):
            return ("name", expr.id)
        attr = _self_attr(expr)
        if attr is not None:
            return ("self", attr)
        return ("", "")

    # -- mutations ------------------------------------------------------
    def _key_of(self, expr: ast.AST) -> tuple:
        if isinstance(expr, ast.Name):
            return ("name", expr.id)
        attr = _self_attr(expr)
        if attr is not None:
            return ("self", attr)
        return ("", "")

    def _record(self, expr: ast.AST, node: ast.AST) -> None:
        key = self._key_of(expr)
        if key in self.watched and self.held == 0:
            self.hits.append((key, node))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
            self._record(func.value, node)
        self.generic_visit(node)

    def _record_target(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, ast.Subscript):
            self._record(target.value, node)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target, node)
        self.generic_visit(node)


def _is_metric_factory_call(node: ast.AST) -> bool:
    """``<anything>.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in METRIC_FACTORIES
    )


class _MetricValueScanner(ast.NodeVisitor):
    """Find unlocked ``.value`` writes on obs metric objects.

    Tracks names bound from metric-factory calls (``c = reg.counter(...)``)
    and flags ``c.value = ...`` / ``c.value += ...`` — plus the chained form
    ``reg.counter(...).value += 1`` — unless a lock-ish context manager
    (any ``with`` over an expression whose dotted name mentions ``lock``)
    is held.  Reads of ``.value`` are fine; only writes race.
    """

    def __init__(self) -> None:
        self.metric_names: set[str] = set()
        self.held = 0
        self.hits: list[ast.AST] = []

    def visit_With(self, node: ast.With) -> None:
        holds = any(
            "lock" in dotted_name(item.context_expr).lower()
            for item in node.items
        )
        if holds:
            self.held += 1
        self.generic_visit(node)
        if holds:
            self.held -= 1

    def _check_target(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt, node)
            return
        if not (isinstance(target, ast.Attribute) and target.attr == "value"):
            return
        base = target.value
        is_metric = (
            isinstance(base, ast.Name) and base.id in self.metric_names
        ) or _is_metric_factory_call(base)
        if is_metric and self.held == 0:
            self.hits.append(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_metric_factory_call(node.value):
            for target in node.targets:
                self.metric_names.update(assigned_names(target))
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and _is_metric_factory_call(node.value):
            self.metric_names.update(assigned_names(node.target))
        self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node)
        self.generic_visit(node)


class ConcurrencyRule(Rule):
    name = "concurrency"
    description = (
        "locks or thread-locals in serve/obs/api not built by "
        "repro.forksafe; mutable shared state there mutated without "
        "holding a lock via `with`; bare .acquire() calls; direct .value "
        "writes on obs metric objects outside repro.obs"
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package("obs"):
            yield from self._check_metric_objects(ctx)
        if not any(ctx.in_package(pkg) for pkg in THREADED_PACKAGES):
            return
        yield from self._check_direct_primitives(ctx)
        yield from self._check_bare_acquire(ctx)
        yield from self._check_module_state(ctx)
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    # ------------------------------------------------------------------
    def _check_metric_objects(self, ctx: ModuleContext) -> Iterator[Finding]:
        scanner = _MetricValueScanner()
        scanner.visit(ctx.tree)
        for site in scanner.hits:
            yield self.finding(
                ctx,
                site,
                "direct .value write on an obs metric object bypasses the "
                "registry lock and the multiprocess mirror; use obs.inc()/"
                "obs.set_gauge()/obs.observe() (or the MetricsRegistry "
                "inc/set/observe helpers) instead",
            )

    # ------------------------------------------------------------------
    def _check_direct_primitives(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "threading":
                names = [f"threading.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [dotted_name(node.func), _field_default_factory(node)]
            else:
                continue
            for name in names:
                if name in THREADING_PRIMITIVES:
                    yield self.finding(
                        ctx,
                        node,
                        f"{name} built directly: a forked pool worker "
                        "inherits it as the fork found it (held, or with "
                        "the forking thread's values); build locks and "
                        "thread-locals with repro.forksafe",
                    )

    # ------------------------------------------------------------------
    def _check_bare_acquire(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "bare .acquire(): hold locks via `with lock:` so every "
                    "exit path releases (try/finally at minimum)",
                )

    # ------------------------------------------------------------------
    def _check_module_state(self, ctx: ModuleContext) -> Iterator[Finding]:
        module_locks: set[tuple] = set()
        module_mutables: dict[str, int] = {}
        for node in ctx.tree.body:
            targets: list[ast.AST] = []
            value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for name in (n for t in targets for n in assigned_names(t)):
                if _is_lock_call(value):
                    module_locks.add(("name", name))
                elif is_mutable_literal(value) and name != "__all__":
                    module_mutables[name] = node.lineno
        if not module_mutables:
            return
        watched = {("name", name) for name in module_mutables}
        scanner = _MutationScanner(watched, module_locks)
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scanner.visit(node)
        for (_, name), site in scanner.hits:
            yield self.finding(
                ctx,
                site,
                f"module-level {name!r} (defined line "
                f"{module_mutables[name]}) is mutated without holding a "
                "module-level threading lock via `with`",
            )

    # ------------------------------------------------------------------
    def _collect_class_info(self, node: ast.ClassDef) -> _ClassInfo:
        info = _ClassInfo(node=node)
        is_dataclass = any(
            dotted_name(dec).split(".")[-1] == "dataclass"
            or (
                isinstance(dec, ast.Call)
                and dotted_name(dec.func).split(".")[-1] == "dataclass"
            )
            for dec in node.decorator_list
        )
        if is_dataclass:
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                factory = _field_default_factory(stmt.value)
                if factory in MUTABLE_FACTORIES:
                    info.mutable_attrs[stmt.target.id] = stmt.lineno
                elif factory in LOCK_FACTORIES:
                    info.lock_attrs.add(stmt.target.id)
                elif is_mutable_literal(stmt.value):
                    info.mutable_attrs[stmt.target.id] = stmt.lineno
        for stmt in node.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name in INIT_METHODS
            ):
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Assign):
                        continue
                    for target in sub.targets:
                        attr = _self_attr(target)
                        if attr is None:
                            continue
                        if _is_lock_call(sub.value):
                            info.lock_attrs.add(attr)
                        elif is_mutable_literal(sub.value):
                            info.mutable_attrs[attr] = sub.lineno
        return info

    def _check_class(self, ctx: ModuleContext, node: ast.ClassDef) -> Iterator[Finding]:
        info = self._collect_class_info(node)
        if not info.mutable_attrs:
            return
        watched = {("self", attr) for attr in info.mutable_attrs}
        locks = {("self", attr) for attr in info.lock_attrs}
        hits: list[tuple[str, ast.AST]] = []
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in INIT_METHODS:
                continue
            scanner = _MutationScanner(watched, locks)
            scanner.visit(stmt)
            hits.extend((key[1], site) for key, site in scanner.hits)
        if not hits:
            return
        if not info.lock_attrs:
            attrs = sorted({attr for attr, _ in hits})
            yield self.finding(
                ctx,
                node,
                f"class {node.name!r} mutates shared instance state "
                f"{attrs} from methods but owns no threading lock; add a "
                "lock attribute and mutate under `with self._lock`",
            )
            return
        for attr, site in hits:
            yield self.finding(
                ctx,
                site,
                f"self.{attr} is mutated outside `with self."
                f"{'/self.'.join(sorted(info.lock_attrs))}`; shared "
                "containers must be mutated under the instance lock",
            )
