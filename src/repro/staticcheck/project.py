"""Whole-program symbol table and call graph for ``repro.staticcheck``.

The per-module lint rules (:mod:`repro.staticcheck.rules`) see one
``ast.Module`` at a time; the ``fork-safety`` rule
(:mod:`repro.staticcheck.fork_safety`) needs to know *what calls what*
across the repo — which functions a forked child executes, and which
objects it reaches that were built before the fork.

:class:`ProjectContext` provides that layer:

* **Symbol table** — every module under ``src/repro`` parsed once
  (the same :class:`~repro.staticcheck.engine.ModuleContext` objects the
  lint engine checks, so pragmas ride along), with its classes, methods,
  module-level functions and import aliases resolved to dotted
  ``repro.*`` names.
* **Call graph** — per-function resolved callees.  Resolution handles
  direct names (``helper()``), imported names (``from x import f``),
  module-attribute calls (``mod.f()``), constructor calls
  (``ClassName()`` -> ``__init__``), ``self.method()`` through the known
  base classes, and ``obj.method()`` where ``obj``'s class is locally
  inferable (assigned from a known constructor, an annotated parameter,
  or a call whose return type is a known accessor).  As a last resort an
  attribute call resolves by *unique method name* against the known repo
  classes — class-hierarchy analysis in the small.
* **Reachability** — BFS over the call graph from any root set
  (:meth:`ProjectContext.reachable_from`), which is what "code a forked
  child runs" means.

Everything is a heuristic over ``ast`` — no imports are executed.  The
rule that consumes this errs on the side of silence when resolution
fails; an unresolved call simply contributes no edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.staticcheck.engine import ModuleContext, dotted_name

#: Method names never resolved by the unique-name CHA fallback: they
#: collide with stdlib container/file/socket/lock APIs, so ``x.items()``
#: on a plain dict would otherwise resolve to whatever repo class happens
#: to define the only ``items`` method.  Explicitly-typed receivers still
#: resolve these normally.
CHA_AMBIGUOUS_NAMES = frozenset(
    {
        # containers
        "keys", "values", "items", "get", "setdefault", "update", "pop",
        "popitem", "clear", "copy", "append", "extend", "insert", "remove",
        "sort", "reverse", "count", "index", "add", "discard",
        # files / mmaps / sockets
        "read", "write", "readline", "readlines", "flush", "seek", "tell",
        "close", "open", "send", "recv", "sendall", "accept", "bind",
        "listen", "connect", "fileno", "detach", "shutdown", "unlink",
        # locks / threads / queues
        "acquire", "release", "locked", "wait", "notify", "notify_all",
        "set", "is_set", "join", "start", "put", "task_done",
        # strings / misc
        "split", "strip", "format", "encode", "decode", "lower", "upper",
    }
)


def module_name_of(path: str) -> str:
    """``src/repro/serve/pool.py`` -> ``repro.serve.pool``."""
    parts = path.split("/")
    if parts[:1] == ["src"]:
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method, addressable by its dotted qualname."""

    qualname: str  # "repro.serve.pool.ServerPool.start"
    module: str  # "repro.serve.pool"
    path: str  # "src/repro/serve/pool.py"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: str | None = None  # owning class (None for module level)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class: its methods and resolved repo base classes."""

    qualname: str  # "repro.serve.pool.ServerPool"
    module: str
    path: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: dotted qualnames of base classes that resolve to repo classes
    bases: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ModuleInfo:
    """Parsed facts about one module."""

    name: str  # dotted
    path: str
    ctx: ModuleContext
    #: local alias -> dotted target ("np" -> "numpy",
    #: "Engine" -> "repro.api.engine.Engine")
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: module-global name -> class qualname, from ``_X = ClassName(...)``
    #: assignments at module level (resolved lazily, None = not yet)
    global_types: "dict[str, str] | None" = None


def _collect_imports(tree: ast.Module, module: str) -> dict[str, str]:
    aliases: dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname is None and "." in alias.name:
                    # `import a.b.c` binds `a`, but calls spell a.b.c.f —
                    # keep the full dotted form resolvable too
                    aliases[alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative import: resolve against the package
                anchor = module.split(".")
                # level 1 = current package for module files
                anchor = anchor[: len(anchor) - node.level + (0 if "." in module else 0)]
                prefix = ".".join(anchor)
                base = f"{prefix}.{base}" if base else prefix
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    del package
    return aliases


class ProjectContext:
    """The project-wide view the ``fork-safety`` rule consumes."""

    def __init__(self, contexts: Iterable[ModuleContext]):
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        #: every known class, keyed by dotted qualname
        self.classes: dict[str, ClassInfo] = {}
        #: every known function/method, keyed by dotted qualname
        self.functions: dict[str, FunctionInfo] = {}
        #: method name -> class qualnames defining it (for CHA fallback)
        self._method_sites: dict[str, list[str]] = {}
        self._local_types_cache: dict[str, dict[str, str]] = {}
        for ctx in contexts:
            self._index_module(ctx)
        self._resolve_bases()
        #: caller qualname -> set of callee qualnames
        self.call_graph: dict[str, set[str]] = {}
        for info in self.functions.values():
            self.call_graph[info.qualname] = set(
                callee.qualname for _, callee in self.calls_in(info)
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _index_module(self, ctx: ModuleContext) -> None:
        name = module_name_of(ctx.path)
        info = ModuleInfo(name=name, path=ctx.path, ctx=ctx)
        info.imports = _collect_imports(ctx.tree, name)
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{name}.{node.name}"
                fn = FunctionInfo(qual, name, ctx.path, node)
                info.functions[node.name] = fn
                self.functions[qual] = fn
            elif isinstance(node, ast.ClassDef):
                cqual = f"{name}.{node.name}"
                cinfo = ClassInfo(cqual, name, ctx.path, node)
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mqual = f"{cqual}.{stmt.name}"
                        fn = FunctionInfo(mqual, name, ctx.path, stmt, node.name)
                        cinfo.methods[stmt.name] = fn
                        self.functions[mqual] = fn
                        self._method_sites.setdefault(stmt.name, []).append(cqual)
                info.classes[node.name] = cinfo
                self.classes[cqual] = cinfo
        self.modules[name] = info
        self.by_path[ctx.path] = info

    def _resolve_bases(self) -> None:
        for info in self.modules.values():
            for cinfo in info.classes.values():
                for base in cinfo.node.bases:
                    resolved = self._resolve_name(info, dotted_name(base))
                    if resolved in self.classes:
                        cinfo.bases.append(resolved)

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _resolve_name(self, module: ModuleInfo, dotted: str) -> str:
        """Resolve a dotted name used in *module* to a project qualname.

        ``Engine`` -> ``repro.api.engine.Engine`` via the import table;
        ``pool.ServerPool`` -> through the module alias; already-local
        names resolve against the module's own tables.  Returns the input
        unchanged when nothing matches (callers test membership).
        """
        if not dotted:
            return ""
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is not None:
            resolved = f"{target}.{rest}" if rest else target
        elif head in module.classes or head in module.functions:
            resolved = f"{module.name}.{dotted}"
        else:
            resolved = dotted
        # an import of a module member may itself need one more hop:
        # `from repro.serve import pool` then `pool.ServerPool`
        if (
            resolved not in self.classes
            and resolved not in self.functions
            and resolved not in self.modules
        ):
            prefix, _, attr = resolved.rpartition(".")
            if prefix in self.modules and attr:
                sub = self.modules[prefix]
                target = sub.imports.get(attr)
                if target is not None:
                    resolved = target
        return resolved

    def lookup_method(self, cls: ClassInfo, method: str) -> FunctionInfo | None:
        """Method lookup through the known part of the MRO."""
        seen: set[str] = set()
        stack = [cls.qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            info = self.classes.get(qual)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            stack.extend(info.bases)
        return None

    # ------------------------------------------------------------------
    # Local type inference (per function body)
    # ------------------------------------------------------------------
    def _local_types(self, fn: FunctionInfo) -> dict[str, str]:
        """Map local variable names to class qualnames where inferable.

        Sources: ``x = ClassName(...)`` constructor calls, annotated
        parameters / assignments naming a known class, and ``self`` inside
        methods.
        """
        cached = self._local_types_cache.get(fn.qualname)
        if cached is not None:
            return cached
        module = self.modules[fn.module]
        types: dict[str, str] = {}
        if fn.class_name is not None:
            types["self"] = f"{fn.module}.{fn.class_name}"
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                ann = _annotation_name(arg.annotation)
                resolved = self._resolve_name(module, ann) if ann else ""
                if resolved in self.classes:
                    types[arg.arg] = resolved
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = self._resolve_name(module, dotted_name(node.value.func))
                target_cls = None
                if callee in self.classes:
                    target_cls = callee
                elif callee in self.functions:
                    target_cls = self._returned_class(self.functions[callee])
                if target_cls:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = target_cls
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                ann = _annotation_name(node.annotation)
                resolved = self._resolve_name(module, ann) if ann else ""
                if resolved in self.classes:
                    types[node.target.id] = resolved
        self._local_types_cache[fn.qualname] = types
        return types

    def _global_types(self, module: ModuleInfo) -> dict[str, str]:
        """Types of module-level singletons: ``_TRACER = Tracer()``."""
        if module.global_types is None:
            types: dict[str, str] = {}
            for node in module.ctx.tree.body:
                if not (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                callee = self._resolve_name(
                    module, dotted_name(node.value.func)
                )
                if callee in self.classes:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = callee
            module.global_types = types
        return module.global_types

    def _returned_class(self, fn: FunctionInfo) -> str | None:
        """Class qualname a function returns, via its return annotation or
        a trivially-analysable ``return <global>`` of a known instance."""
        returns = getattr(fn.node, "returns", None)
        if returns is not None:
            ann = _annotation_name(returns)
            if ann:
                resolved = self._resolve_name(self.modules[fn.module], ann)
                if resolved in self.classes:
                    return resolved
        return None

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def calls_in(
        self, fn: FunctionInfo
    ) -> Iterator[tuple[ast.Call, FunctionInfo]]:
        """Yield ``(call_node, resolved_callee)`` for calls inside *fn*.

        Nested defs are included (their bodies execute as part of the
        enclosing function when called; closures in this repo are
        overwhelmingly immediately-wired callbacks).
        """
        module = self.modules[fn.module]
        types = self._local_types(fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self._resolve_call(module, fn, types, node)
            if callee is not None:
                yield node, callee

    def _resolve_call(
        self,
        module: ModuleInfo,
        fn: FunctionInfo,
        types: dict[str, str],
        call: ast.Call,
    ) -> FunctionInfo | None:
        func = call.func
        # obj.method(...) with an inferable receiver type
        if isinstance(func, ast.Attribute):
            base = func.value
            # chained accessor: obs.registry().attach(...)
            if isinstance(base, ast.Call):
                accessor = self._resolve_name(module, dotted_name(base.func))
                accessor_fn = self.functions.get(accessor)
                if accessor_fn is not None:
                    cls_qual = self._returned_class(accessor_fn)
                    if cls_qual is not None:
                        cls = self.classes[cls_qual]
                        resolved = self.lookup_method(cls, func.attr)
                        if resolved is not None:
                            return resolved
            if isinstance(base, ast.Name):
                cls_qual = types.get(base.id) or self._global_types(module).get(
                    base.id
                )
                if cls_qual is not None:
                    cls = self.classes.get(cls_qual)
                    if cls is not None:
                        resolved = self.lookup_method(cls, func.attr)
                        if resolved is not None:
                            return resolved
        dotted = dotted_name(func)
        if dotted:
            resolved_name = self._resolve_name(module, dotted)
            if resolved_name in self.functions:
                return self.functions[resolved_name]
            if resolved_name in self.classes:  # constructor
                init = self.lookup_method(self.classes[resolved_name], "__init__")
                if init is not None:
                    return init
        # CHA fallback: attribute call whose method name is defined by
        # exactly one known repo class — and is not a stdlib-colliding
        # name (``.values()`` on a plain dict must not resolve)
        if (
            isinstance(func, ast.Attribute)
            and not isinstance(func.value, ast.Call)
            and func.attr not in CHA_AMBIGUOUS_NAMES
        ):
            sites = self._method_sites.get(func.attr, [])
            if len(sites) == 1:
                return self.classes[sites[0]].methods[func.attr]
        return None

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Qualnames of every function reachable from *roots* (inclusive)."""
        seen: set[str] = set()
        stack = [qual for qual in roots if qual in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            stack.extend(self.call_graph.get(qual, ()))
        return seen


def _annotation_name(node: ast.AST) -> str:
    """Best-effort dotted name of a type annotation.

    Handles plain names, ``a.b.C``, string annotations, and strips one
    layer of ``Optional[...]`` / ``X | None``.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        # "ClassName | None" and "Optional[ClassName]" both reduce
        text = text.replace("Optional[", "").rstrip("]")
        text = text.split("|")[0].strip()
        return text.strip('"')
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_name(node.left)
        return left if left and left != "None" else _annotation_name(node.right)
    if isinstance(node, ast.Subscript):
        base = _annotation_name(node.value)
        if base in ("Optional",):
            return _annotation_name(node.slice)
        return base
    return dotted_name(node)
