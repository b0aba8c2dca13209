"""``run_project`` orchestration: whole-program findings, pragmas, baseline."""

import os
import textwrap

from repro.staticcheck.baseline import Baseline
from repro.staticcheck.runner import run_project


def write_tree(root, files: dict) -> None:
    for rel, source in files.items():
        full = os.path.join(root, rel.replace("/", os.sep))
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(source))


def fork_gap(fork_line: str = "pid = os.fork()") -> dict:
    """A pool whose child keeps the parent's lock without re-initialising it."""
    return {
        "src/repro/serve/forkmod.py": f"""
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
                {fork_line}
                if pid == 0:
                    child_main(w)
            """,
    }


class TestRunProject:
    def test_reports_whole_program_findings(self, tmp_path):
        write_tree(tmp_path, fork_gap())
        result = run_project(root=str(tmp_path), use_baseline=False)
        assert [f.rule for f in result.active()] == ["fork-safety"]

    def test_primary_line_pragma_suppresses(self, tmp_path):
        write_tree(
            tmp_path,
            fork_gap(
                "pid = os.fork()  # staticcheck: ignore[fork-safety] -- test"
            ),
        )
        result = run_project(root=str(tmp_path), use_baseline=False)
        assert result.active() == []
        assert result.suppressed_count() == 1

    def test_baseline_absorbs_known_findings(self, tmp_path):
        write_tree(tmp_path, fork_gap())
        raw = run_project(root=str(tmp_path), use_baseline=False)
        baseline = Baseline.from_findings(raw.findings)
        result = run_project(root=str(tmp_path), baseline=baseline)
        assert result.active() == []
        assert result.baselined_count() == 1
