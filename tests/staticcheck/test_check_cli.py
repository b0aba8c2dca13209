"""`repro check` CLI, runner orchestration and the repo-is-clean gate."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cli import main
from repro.staticcheck import run_lint, run_project
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
    """The acceptance gate: the full check (every lint rule plus
    fork-safety, as CI runs it) has zero non-baselined findings."""

    def test_lint_is_clean_with_baseline(self):
        result = run_project()
        assert result.new_errors() == [], "\n".join(
            f"{f.location()}: [{f.rule}] {f.message}" for f in result.new_errors()
        )

    def test_baseline_has_no_stale_entries(self):
        result = run_project()
        assert result.stale_baseline == []


class TestCheckCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["check", "--fail-stale"]) == 0
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
                     "src/repro/models/gbdt.py", "--no-baseline"])
        assert code == 0  # gbdt's findings are precision-policy only

    def test_rules_subset_keeps_other_pragmas_valid(self):
        """Pragmas for unselected rules are not typos under --rules."""
        result = run_lint(rule_names=["determinism"])
        assert not any(f.rule == "invalid-pragma" for f in result.findings)

    def test_rules_subset_skips_stale_detection(self):
        # a subset run can't tell a stale entry from an unselected rule's
        result = run_project(rule_names=["determinism"])
        assert result.stale_baseline == []

    def test_project_rules_subset_is_clean(self, capsys):
        code = main(["check", "--rules", "fork-safety"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "invalid-pragma" not in out
        assert "stale" not in out

    def test_fork_safety_with_paths_is_usage_error(self, capsys):
        # the whole-program rule cannot run on a file list
        assert main(["check", "--rules", "fork-safety",
                     "src/repro/serve/pool.py"]) == 2
        assert "fork-safety" in capsys.readouterr().err

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

    def test_update_baseline_requires_full_run(self, tmp_path, capsys):
        assert main(["check", "--update-baseline",
                     "src/repro/nn/loss.py"]) == 2

    def test_update_baseline_refuses_rules_subset(self, tmp_path, capsys):
        # a subset's findings would replace every other rule's rows
        target = tmp_path / "baseline.json"
        assert main(["check", "--update-baseline", "--rules", "determinism",
                     "--baseline", str(target)]) == 2
        assert not target.exists()
        assert "--rules" in capsys.readouterr().err

    def test_update_baseline_round_trip(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "baseline.json"
        assert main(["check", "--update-baseline",
                     "--baseline", str(target)]) == 0
        assert target.exists()
        # the fresh baseline makes a --baseline run clean
        assert main(["check", "--fail-stale",
                     "--baseline", str(target)]) == 0

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "autodiff-bypass", "precision-policy", "determinism",
            "concurrency", "api-surface", "fork-safety",
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
        # a copy of the library whose forked worker no longer
        # re-initialises the registry's inherited lock
        shutil.copytree(
            os.path.join(repo_root(), "src", "repro"),
            tmp_path / "src" / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy(
            os.path.join(repo_root(), "staticcheck-baseline.json"), tmp_path
        )
        pool = tmp_path / "src" / "repro" / "serve" / "pool.py"
        source = pool.read_text()
        assert source.count("registry.reinit_after_fork()") == 1
        pool.write_text(source.replace("registry.reinit_after_fork()", "pass"))
        monkeypatch.setattr(
            "repro.staticcheck.runner.repo_root", lambda: str(tmp_path)
        )
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert "1 new error(s)" in out
        assert "src/repro/serve/pool.py" in out
        assert "[fork-safety]" in out
        assert "src/repro/serve/registry.py" in out  # the lock's definition


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
class TestMypy:
    def test_mypy_config_parses_and_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--version"],
            capture_output=True, text=True, cwd=repo_root(),
        )
        assert proc.returncode == 0
