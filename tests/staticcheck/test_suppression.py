"""Pragma and baseline suppression paths, including the failure modes."""

import ast
import json
import textwrap

import pytest

from repro.errors import StaticCheckError
from repro.staticcheck import Baseline, LintEngine, all_rules, load_baseline
from repro.staticcheck.baseline import write_baseline
from repro.staticcheck.engine import Rule
from repro.staticcheck.pragmas import parse_pragmas

BAD = "import numpy as np\nx = np.zeros(3, dtype=np.float64)\n"


def lint(source, path="src/repro/models/foo.py"):
    return LintEngine(all_rules()).check_source(path, source)


class TestPragmas:
    def test_inline_pragma_suppresses(self):
        source = (
            "import numpy as np\n"
            "x = np.zeros(3, dtype=np.float64)  # staticcheck: ignore[precision-policy]\n"
        )
        findings = lint(source)
        assert len(findings) == 1 and findings[0].suppressed

    def test_pragma_on_preceding_comment_line(self):
        source = (
            "import numpy as np\n"
            "# staticcheck: ignore[precision-policy] -- stored canonical,\n"
            "# wrapped justification continues here\n"
            "x = np.zeros(3, dtype=np.float64)\n"
        )
        findings = lint(source)
        assert len(findings) == 1 and findings[0].suppressed

    def test_bare_ignore_suppresses_every_rule(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # staticcheck: ignore\n"
        )
        assert all(f.suppressed for f in lint(source, "src/repro/data/foo.py"))

    def test_ignore_file_pragma(self):
        source = "# staticcheck: ignore-file[precision-policy]\n" + BAD
        findings = lint(source)
        assert len(findings) == 1 and findings[0].suppressed

    def test_wrong_rule_name_does_not_suppress(self):
        source = (
            "import numpy as np\n"
            "x = np.zeros(3, dtype=np.float64)  # staticcheck: ignore[determinism]\n"
        )
        findings = lint(source)
        rules = {f.rule: f.suppressed for f in findings}
        assert rules["precision-policy"] is False

    def test_unknown_rule_name_reported(self):
        source = "x = 1  # staticcheck: ignore[no-such-rule]\n"
        findings = lint(source)
        assert [f.rule for f in findings] == ["invalid-pragma"]
        assert "no-such-rule" in findings[0].message

    def test_pragma_in_string_literal_is_ignored(self):
        source = 'TEXT = "# staticcheck: ignore[precision-policy]"\n' + BAD
        findings = lint(source)
        assert not any(f.suppressed for f in findings)

    def test_malformed_pragma_reported(self):
        index = parse_pragmas("# staticcheck: suppress-everything\n")
        assert index.malformed

    def test_module_without_pragma_text_is_not_tokenized(self, monkeypatch):
        from repro.staticcheck import pragmas

        def refuse(*args, **kwargs):
            raise AssertionError("tokenize called")

        monkeypatch.setattr(pragmas.tokenize, "generate_tokens", refuse)
        source = "x = 1  # an ordinary comment\n# staticcheck\n"
        index = parse_pragmas(source)
        assert index == pragmas.PragmaIndex()
        with pytest.raises(AssertionError, match="tokenize called"):
            parse_pragmas(source + "y = 2  # staticcheck: ignore\n")


class _DefAnchorRule(Rule):
    """Test-only rule anchoring a finding on every function definition."""

    name = "def-anchor"
    description = "flags every def (findings anchor at the def line)"

    def check_module(self, ctx):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef):
                yield self.finding(ctx, node, f"def {node.name} flagged")


class TestPragmaEdgeCases:
    def def_lint(self, source):
        return LintEngine([_DefAnchorRule()]).check_source(
            "src/repro/models/foo.py", textwrap.dedent(source)
        )

    def test_pragma_above_decorator_reaches_the_def_line(self):
        findings = self.def_lint(
            """
            # staticcheck: ignore[def-anchor] -- decorated def
            @staticmethod
            @property
            def helper():
                return 1
            """
        )
        assert len(findings) == 1 and findings[0].suppressed

    def test_pragma_covers_multi_line_decorator_arguments(self):
        findings = self.def_lint(
            """
            # staticcheck: ignore[def-anchor] -- decorated def
            @register(
                name="helper",
            )
            def helper():
                return 1
            """
        )
        assert len(findings) == 1 and findings[0].suppressed

    def test_pragma_above_plain_statement_does_not_leak_to_next_def(self):
        findings = self.def_lint(
            """
            # staticcheck: ignore[def-anchor] -- only the assignment
            x = 1
            def helper():
                return 1
            """
        )
        assert len(findings) == 1 and not findings[0].suppressed

    def test_multi_rule_ignore_suppresses_both_rules(self):
        source = (
            "import numpy as np\n"
            "x = np.asarray(np.random.default_rng().normal(size=3), "
            "dtype=np.float64)  "
            "# staticcheck: ignore[determinism,precision-policy] -- test\n"
        )
        findings = lint(source, "src/repro/data/foo.py")
        rules = {f.rule for f in findings}
        assert {"determinism", "precision-policy"} <= rules
        assert all(f.suppressed for f in findings)

    def test_multi_rule_ignore_leaves_unlisted_rules_active(self):
        source = (
            "import numpy as np\n"
            "x = np.asarray(np.random.default_rng().normal(size=3), "
            "dtype=np.float64)  # staticcheck: ignore[determinism] -- test\n"
        )
        findings = lint(source, "src/repro/data/foo.py")
        by_rule = {f.rule: f.suppressed for f in findings}
        assert by_rule["determinism"] is True
        assert by_rule["precision-policy"] is False

    def test_inline_pragma_inside_with_block(self):
        source = textwrap.dedent(
            """
            import numpy as np
            with open("f") as fh:
                x = np.zeros(3, dtype=np.float64)  # staticcheck: ignore[precision-policy]
            """
        )
        findings = [f for f in lint(source) if f.rule == "precision-policy"]
        assert len(findings) == 1 and findings[0].suppressed

    def test_indented_standalone_pragma_inside_with_block(self):
        source = textwrap.dedent(
            """
            import numpy as np
            with open("f") as fh:
                # staticcheck: ignore[precision-policy] -- canonical on disk
                x = np.zeros(3, dtype=np.float64)
            """
        )
        findings = [f for f in lint(source) if f.rule == "precision-policy"]
        assert len(findings) == 1 and findings[0].suppressed

    def test_pragma_on_with_item_line_of_multi_line_header(self):
        source = textwrap.dedent(
            """
            import numpy as np
            with ctx(
                np.zeros(3, dtype=np.float64)  # staticcheck: ignore[precision-policy]
            ):
                pass
            """
        )
        findings = [f for f in lint(source) if f.rule == "precision-policy"]
        assert len(findings) == 1 and findings[0].suppressed


class TestBaseline:
    def test_baseline_marks_known_findings(self):
        findings = lint(BAD)
        baseline = Baseline.from_findings(findings)
        applied = baseline.apply(lint(BAD))
        assert all(f.baselined for f in applied)

    def test_count_budget_catches_new_occurrence(self):
        baseline = Baseline.from_findings(lint(BAD))
        doubled = BAD + "y = np.zeros(3, dtype=np.float64)\n"
        applied = baseline.apply(lint(doubled))
        # the x line is covered, the new y line is not
        flags = sorted((f.line, f.baselined) for f in applied)
        assert flags == [(2, True), (3, False)]

    def test_fingerprint_survives_line_drift(self):
        shifted = "import numpy as np\n\n\nx = np.zeros(3, dtype=np.float64)\n"
        baseline = Baseline.from_findings(lint(BAD))
        applied = baseline.apply(lint(shifted))
        assert all(f.baselined for f in applied)

    def test_round_trip_and_stale_detection(self, tmp_path):
        baseline = Baseline.from_findings(lint(BAD))
        path = tmp_path / "baseline.json"
        write_baseline(path, baseline)
        loaded = load_baseline(path)
        assert loaded.counts == baseline.counts
        stale = loaded.stale_entries([])  # nothing fires any more
        assert len(stale) == 1 and stale[0]["rule"] == "precision-policy"

    def test_missing_file_is_empty(self, tmp_path):
        assert len(load_baseline(tmp_path / "nope.json")) == 0

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(StaticCheckError, match="unreadable"):
            load_baseline(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(StaticCheckError, match="version"):
            load_baseline(path)
