"""Whole-program layer: symbol table, call graph and reachability."""

import textwrap

from repro.staticcheck.engine import ModuleContext
from repro.staticcheck.project import ProjectContext, module_name_of


def project_of(files: dict) -> ProjectContext:
    return ProjectContext(
        ModuleContext.from_source(path, textwrap.dedent(source))
        for path, source in files.items()
    )


class TestModuleNames:
    def test_plain_module(self):
        assert module_name_of("src/repro/serve/pool.py") == "repro.serve.pool"

    def test_package_init(self):
        assert module_name_of("src/repro/obs/__init__.py") == "repro.obs"


class TestSymbolTable:
    FILES = {
        "src/repro/aaa/base.py": """
            class Base:
                def shared(self):
                    return 1
            """,
        "src/repro/aaa/mod.py": """
            from repro.aaa.base import Base

            class Child(Base):
                def __init__(self):
                    self.x = 1

                def run(self):
                    return self.shared()

            def top():
                return Child()
            """,
    }

    def test_classes_functions_and_methods_indexed(self):
        project = project_of(self.FILES)
        assert "repro.aaa.mod.Child" in project.classes
        assert "repro.aaa.mod.top" in project.functions
        assert "repro.aaa.mod.Child.run" in project.functions

    def test_bases_resolve_across_modules(self):
        project = project_of(self.FILES)
        child = project.classes["repro.aaa.mod.Child"]
        assert child.bases == ["repro.aaa.base.Base"]

    def test_self_method_resolves_through_base(self):
        project = project_of(self.FILES)
        assert (
            "repro.aaa.base.Base.shared"
            in project.call_graph["repro.aaa.mod.Child.run"]
        )

    def test_constructor_resolves_to_init(self):
        project = project_of(self.FILES)
        assert (
            "repro.aaa.mod.Child.__init__"
            in project.call_graph["repro.aaa.mod.top"]
        )


class TestCallResolution:
    def test_imported_function_call(self):
        project = project_of(
            {
                "src/repro/aaa/util.py": """
                    def helper():
                        return 1
                    """,
                "src/repro/aaa/use.py": """
                    from repro.aaa.util import helper

                    def run():
                        return helper()
                    """,
            }
        )
        assert (
            "repro.aaa.util.helper" in project.call_graph["repro.aaa.use.run"]
        )

    def test_module_attribute_call(self):
        project = project_of(
            {
                "src/repro/aaa/util.py": """
                    def helper():
                        return 1
                    """,
                "src/repro/aaa/use.py": """
                    import repro.aaa.util as util

                    def run():
                        return util.helper()
                    """,
            }
        )
        assert (
            "repro.aaa.util.helper" in project.call_graph["repro.aaa.use.run"]
        )

    def test_annotated_parameter_receiver(self):
        project = project_of(
            {
                "src/repro/aaa/mod.py": """
                    class Widget:
                        def use(self):
                            return 1

                    def run(w: Widget):
                        return w.use()
                    """,
            }
        )
        assert (
            "repro.aaa.mod.Widget.use" in project.call_graph["repro.aaa.mod.run"]
        )

    def test_module_global_singleton_receiver(self):
        project = project_of(
            {
                "src/repro/aaa/mod.py": """
                    class Widget:
                        def use(self):
                            return 1

                    _W = Widget()

                    def run():
                        return _W.use()
                    """,
            }
        )
        assert (
            "repro.aaa.mod.Widget.use" in project.call_graph["repro.aaa.mod.run"]
        )

    def test_cha_unique_method_fallback(self):
        project = project_of(
            {
                "src/repro/aaa/mod.py": """
                    class Widget:
                        def frobnicate(self):
                            return 1

                    def run(w):
                        return w.frobnicate()
                    """,
            }
        )
        assert (
            "repro.aaa.mod.Widget.frobnicate"
            in project.call_graph["repro.aaa.mod.run"]
        )

    def test_cha_never_resolves_stdlib_colliding_names(self):
        # `d.values()` on a plain dict must not resolve to the one repo
        # class that happens to define a `values` method.
        project = project_of(
            {
                "src/repro/aaa/mod.py": """
                    class Spec:
                        def values(self):
                            return []

                    def run(d):
                        return d.values()
                    """,
            }
        )
        assert project.call_graph["repro.aaa.mod.run"] == set()

    def test_typed_receiver_still_resolves_ambiguous_names(self):
        project = project_of(
            {
                "src/repro/aaa/mod.py": """
                    class Spec:
                        def values(self):
                            return []

                    def run(s: Spec):
                        return s.values()
                    """,
            }
        )
        assert (
            "repro.aaa.mod.Spec.values"
            in project.call_graph["repro.aaa.mod.run"]
        )


class TestReachability:
    FILES = {
        "src/repro/aaa/mod.py": """
            def a():
                return b()

            def b():
                return c()

            def c():
                return 1

            def unrelated():
                return 2
            """,
    }

    def test_reachable_from(self):
        project = project_of(self.FILES)
        reach = project.reachable_from(["repro.aaa.mod.a"])
        assert "repro.aaa.mod.c" in reach
        assert "repro.aaa.mod.unrelated" not in reach

