"""`repro check` CLI, runner orchestration and the repo-is-clean gate."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cli import main
from repro.staticcheck import run_lint
from repro.staticcheck.runner import iter_source_files, repo_root


class TestRunner:
    def test_iter_source_files_finds_library(self):
        files = iter_source_files()
        assert "src/repro/cli.py" in files
        assert "src/repro/staticcheck/engine.py" in files
        assert all(f.endswith(".py") for f in files)

    def test_explicit_paths_subset(self):
        result = run_lint(paths=["src/repro/nn/loss.py"])
        assert result.files_checked == 1


class TestRepoIsClean:
    """The acceptance gate: the full check (every rule over the whole
    tree, as CI runs it) has zero unsuppressed findings, and so every
    pragma in the tree still suppresses one."""

    def test_lint_is_clean(self):
        result = run_lint()
        assert result.new_errors() == [], "\n".join(
            f"{f.location()}: [{f.rule}] {f.message}" for f in result.new_errors()
        )


UNUSED = "x = 1  # staticcheck: ignore[determinism] -- nothing to excuse\n"


class TestCheckCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "0 new error(s)" in out

    def test_seeded_violation_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert main(["check", str(bad)]) == 1
        assert "determinism" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["check", "--format", "json",
                     "src/repro/nn/loss.py"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["files_checked"] == 1

    def test_rules_filter(self, capsys):
        code = main(["check", "--rules", "determinism",
                     "src/repro/analysis/tsne.py"])
        assert code == 0  # tsne's findings are precision-policy only

    def test_rules_subset_keeps_other_pragmas_valid(self):
        """Pragmas for unselected rules are not typos under --rules."""
        result = run_lint(rule_names=["determinism"])
        assert not any(f.rule == "invalid-pragma" for f in result.findings)

    def test_explicit_path_judges_its_pragmas(self, tmp_path, capsys):
        bad = tmp_path / "unused.py"
        bad.write_text(UNUSED)
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "unused.py:1: [unused-pragma]" in out

    def test_rules_subset_judges_no_pragma(self, tmp_path, capsys):
        # a subset cannot tell an unused pragma from one whose rule it
        # left out
        bad = tmp_path / "unused.py"
        bad.write_text(UNUSED)
        assert main(["check", "--rules", "precision-policy", str(bad)]) == 0
        assert "unused-pragma" not in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["check", "no/such/file.py"]) == 2
        err = capsys.readouterr().err
        assert "no/such/file.py" in err
        assert len(err.strip().splitlines()) == 1

    def test_relative_path_from_the_package_directory(self, monkeypatch, capsys):
        monkeypatch.chdir(os.path.join(repo_root(), "src", "repro"))
        assert main(["check", "nn/loss.py"]) == 0
        assert "1 file(s) checked" in capsys.readouterr().out

    def test_root_relative_path_from_elsewhere(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["check", "src/repro/nn/loss.py"]) == 0
        assert "1 file(s) checked" in capsys.readouterr().out

    def test_directory_path_is_usage_error(self, capsys):
        assert main(["check", "src/repro"]) == 2
        err = capsys.readouterr().err
        assert "src/repro" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["check", "--rules", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_help_lists_four_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        out = capsys.readouterr().out
        for option in ("--rules", "--format", "--verbose", "--list-rules"):
            assert option in out
        assert "baseline" not in out and "--fail-stale" not in out

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "autodiff-bypass", "precision-policy", "determinism",
            "concurrency",
        ]


class TestCISeededViolation:
    """What the CI `static-analysis` job relies on: a regression is caught."""

    def test_new_unlocked_state_in_serve_fails(self, tmp_path):
        root = tmp_path / "repo"
        (root / "src" / "repro" / "serve").mkdir(parents=True)
        bad = root / "src" / "repro" / "serve" / "cache.py"
        bad.write_text(
            "CACHE = {}\n"
            "def put(key, value):\n"
            "    CACHE[key] = value\n"
        )
        result = run_lint(root=str(root))
        assert [f.rule for f in result.new_errors()] == ["concurrency"]

    def test_fork_gap_in_pool_fails_plain_check(
        self, tmp_path, monkeypatch, capsys
    ):
        # a copy of the library whose registry lock, which every forked
        # pool worker inherits, is a bare threading.RLock
        shutil.copytree(
            os.path.join(repo_root(), "src", "repro"),
            tmp_path / "src" / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        registry = tmp_path / "src" / "repro" / "serve" / "registry.py"
        source = registry.read_text()
        factory = "default_factory=forksafe.RLock"
        assert source.count(factory) == 1
        registry.write_text(
            source.replace(factory, "default_factory=threading.RLock")
        )
        monkeypatch.setattr(
            "repro.staticcheck.runner.repo_root", lambda: str(tmp_path)
        )
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert "1 new error(s)" in out
        assert "src/repro/serve/registry.py" in out
        assert "[concurrency]" in out
        assert "threading.RLock" in out


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
class TestMypy:
    def test_mypy_config_parses_and_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--version"],
            capture_output=True, text=True, cwd=repo_root(),
        )
        assert proc.returncode == 0
