"""Suppression pragmas, including the failure modes: a pragma naming no
rule, and a pragma that suppresses nothing."""

import ast
import textwrap

import pytest

from repro.staticcheck import LintEngine, all_rules
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
        by_rule = {f.rule: f for f in findings}
        assert sorted(by_rule) == ["def-anchor", "unused-pragma"]
        assert not by_rule["def-anchor"].suppressed
        assert by_rule["unused-pragma"].line == 2

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


class TestUnusedPragma:
    """A pragma that no longer suppresses anything fails the check, so an
    exception cannot outlive the line it excused."""

    def test_a_new_flagged_neighbour_still_fails(self):
        # a pragma excuses one line: a second cast next to an excused one
        # is a new error, as a baseline's count budget made it
        source = (
            "import numpy as np\n"
            "# staticcheck: ignore[precision-policy] -- canonical\n"
            "x = np.zeros(3, dtype=np.float64)\n"
            "y = np.zeros(3, dtype=np.float64)\n"
        )
        flags = [(f.rule, f.line, f.suppressed) for f in lint(source)]
        assert flags == [
            ("precision-policy", 3, True), ("precision-policy", 4, False)
        ]

    def test_inline_pragma_on_clean_line_is_reported(self):
        findings = lint("x = 1  # staticcheck: ignore[determinism] -- stale\n")
        assert [(f.rule, f.line, f.suppressed) for f in findings] == [
            ("unused-pragma", 1, False)
        ]
        assert "determinism" in findings[0].message

    def test_used_pragma_is_not_reported(self):
        source = (
            "import numpy as np\n"
            "x = np.zeros(3, dtype=np.float64)  "
            "# staticcheck: ignore[precision-policy] -- test\n"
        )
        assert [f.rule for f in lint(source)] == ["precision-policy"]

    def test_multi_rule_pragma_reports_only_the_idle_rule(self):
        source = (
            "import numpy as np\n"
            "x = np.zeros(3, dtype=np.float64)  "
            "# staticcheck: ignore[precision-policy,determinism] -- test\n"
        )
        (unused,) = [f for f in lint(source) if f.rule == "unused-pragma"]
        assert "determinism" in unused.message
        assert "precision-policy" not in unused.message

    def test_standalone_pragma_anchors_on_its_own_line(self):
        source = (
            "# staticcheck: ignore[precision-policy] -- wrapped\n"
            "# justification\n"
            "x = 1\n"
        )
        findings = lint(source)
        assert [(f.rule, f.line) for f in findings] == [("unused-pragma", 1)]

    def test_bare_and_file_wide_pragmas_are_judged_and_cannot_hide_it(self):
        findings = lint(
            "# staticcheck: ignore-file -- waives every rule\n"
            "x = 1  # staticcheck: ignore\n"
            "y = 2  # staticcheck: ignore[determinism] -- stale\n"
        )
        assert [(f.rule, f.line, f.suppressed) for f in findings] == [
            ("unused-pragma", 1, False),
            ("unused-pragma", 2, False),
            ("unused-pragma", 3, False),
        ]

    def test_unknown_rule_is_invalid_not_unused(self):
        findings = lint("x = 1  # staticcheck: ignore[no-such-rule]\n")
        assert [f.rule for f in findings] == ["invalid-pragma"]
