"""The whole-program fork-safety rule: a known-bad fixture plus clean twins."""

import textwrap

from repro.staticcheck.engine import ModuleContext
from repro.staticcheck.fork_safety import ForkSafetyRule
from repro.staticcheck.project import ProjectContext


def project_of(files: dict) -> ProjectContext:
    return ProjectContext(
        ModuleContext.from_source(path, textwrap.dedent(source))
        for path, source in files.items()
    )


def run_rule(rule, files: dict):
    return list(rule.check_project(project_of(files)))


FORK_BAD = {
    "src/repro/serve/forkmod.py": """
        import os
        import threading

        class Widget:
            def __init__(self):
                self._lock = threading.Lock()

            def use(self):
                with self._lock:
                    pass

        def child_main(w: Widget):
            w.use()

        def spawn(w: Widget):
            pid = os.fork()
            if pid == 0:
                child_main(w)
        """,
}


class TestForkSafety:
    def test_inherited_lock_without_reinit(self):
        findings = run_rule(ForkSafetyRule(), FORK_BAD)
        assert len(findings) == 1
        finding = findings[0]
        assert "Widget" in finding.message
        assert "_lock" in finding.message
        # the defining assignment rides along as a related location
        assert any("_lock" in rel.note for rel in finding.related)

    def test_fresh_lock_assignment_in_child_is_clean(self):
        findings = run_rule(
            ForkSafetyRule(),
            {
                "src/repro/serve/forkmod.py": """
                    import os
                    import threading

                    class Widget:
                        def __init__(self):
                            self._lock = threading.Lock()

                        def use(self):
                            with self._lock:
                                pass

                    def child_main(w: Widget):
                        w._lock = threading.Lock()
                        w.use()

                    def spawn(w: Widget):
                        pid = os.fork()
                        if pid == 0:
                            child_main(w)
                    """,
            },
        )
        assert findings == []

    def test_reinit_method_on_child_path_is_clean(self):
        findings = run_rule(
            ForkSafetyRule(),
            {
                "src/repro/serve/forkmod.py": """
                    import os
                    import threading

                    class Widget:
                        def __init__(self):
                            self._lock = threading.Lock()

                        def reinit_after_fork(self):
                            self._lock = threading.Lock()

                        def use(self):
                            with self._lock:
                                pass

                    def child_main(w: Widget):
                        w.reinit_after_fork()
                        w.use()

                    def spawn(w: Widget):
                        pid = os.fork()
                        if pid == 0:
                            child_main(w)
                    """,
            },
        )
        assert findings == []

    def test_constructed_in_child_is_exempt(self):
        findings = run_rule(
            ForkSafetyRule(),
            {
                "src/repro/serve/forkmod.py": """
                    import os
                    import threading

                    class Widget:
                        def __init__(self):
                            self._lock = threading.Lock()

                        def use(self):
                            with self._lock:
                                pass

                    def child_main():
                        w = Widget()
                        w.use()

                    def spawn():
                        pid = os.fork()
                        if pid == 0:
                            child_main()
                    """,
            },
        )
        assert findings == []

    def test_threading_local_counts_as_fork_hostile(self):
        findings = run_rule(
            ForkSafetyRule(),
            {
                "src/repro/serve/forkmod.py": """
                    import os
                    import threading

                    class Tracker:
                        def __init__(self):
                            self._local = threading.local()

                        def use(self):
                            return self._local

                    def child_main(t: Tracker):
                        t.use()

                    def spawn(t: Tracker):
                        pid = os.fork()
                        if pid == 0:
                            child_main(t)
                    """,
            },
        )
        assert len(findings) == 1
        assert "_local" in findings[0].message

    def test_two_file_fingerprint_survives_line_drift_in_both(self):
        files = {
            "src/repro/serve/widget.py": """
                import threading

                class Widget:
                    def __init__(self):
                        self._lock = threading.Lock()
                """,
            "src/repro/serve/forkmod.py": """
                import os

                from repro.serve.widget import Widget

                def child_main(w: Widget):
                    return w

                def spawn(w: Widget):
                    pid = os.fork()
                    if pid == 0:
                        child_main(w)
                """,
        }
        (before,) = run_rule(ForkSafetyRule(), files)
        assert before.related[0].path == "src/repro/serve/widget.py"
        drifted = {
            path: "\n\n\n# drifted\n" + textwrap.dedent(source)
            for path, source in files.items()
        }
        (after,) = run_rule(ForkSafetyRule(), drifted)
        # the drift was real in both the fork site and the lock definition
        assert before.line != after.line
        assert before.related[0].line != after.related[0].line
        assert before.fingerprint() == after.fingerprint()
