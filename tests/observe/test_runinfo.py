"""Tests for run metadata capture (git state, config fingerprints, run.*)."""

import subprocess

import pytest

from repro.observe import config_fingerprint, git_state, run_info
from repro.observe.runinfo import reset_git_cache


def git(repo, *args) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


@pytest.fixture
def git_repo(tmp_path):
    repo = tmp_path / "checkout"
    repo.mkdir()
    git(repo, "init", "-q")
    git(repo, "config", "user.email", "tester@example.com")
    git(repo, "config", "user.name", "Tester")
    git(repo, "config", "commit.gpgsign", "false")
    (repo / "file.txt").write_text("hello\n")
    git(repo, "add", "file.txt")
    git(repo, "commit", "-q", "-m", "initial")
    reset_git_cache()
    yield repo
    reset_git_cache()


class TestGitState:
    def test_clean_checkout(self, git_repo):
        commit, dirty = git_state(str(git_repo))
        assert commit == git(git_repo, "rev-parse", "HEAD")
        assert dirty is False

    def test_dirty_flag_and_cache(self, git_repo):
        assert git_state(str(git_repo))[1] is False
        (git_repo / "file.txt").write_text("changed\n")
        # Cached answer until the cache is reset.
        assert git_state(str(git_repo))[1] is False
        reset_git_cache()
        assert git_state(str(git_repo))[1] is True

    def test_non_repo_yields_none(self, tmp_path):
        reset_git_cache()
        assert git_state(str(tmp_path)) == (None, None)


class TestConfigFingerprint:
    def test_order_insensitive(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_different_configs_differ(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_none_passes_through(self):
        assert config_fingerprint(None) is None

    def test_short_and_stable(self):
        fp = config_fingerprint({"reps": 10, "backend": "columnar"})
        assert len(fp) == 12
        assert fp == config_fingerprint({"reps": 10, "backend": "columnar"})

    def test_non_json_values_fold_via_repr(self):
        fp = config_fingerprint({"obj": object})
        assert isinstance(fp, str) and len(fp) == 12


class TestRunInfo:
    def test_always_present_labels(self, tmp_path):
        info = run_info(repo=str(tmp_path))
        assert info["run.python"].count(".") >= 1
        assert info["run.cpu_count"] >= 1
        assert "run.numpy" in info
        assert "run.commit" not in info  # not a checkout

    def test_git_and_caller_supplied_fields(self, git_repo):
        info = run_info(
            repo=str(git_repo),
            workload="bench.smoke",
            config={"reps": 10},
        )
        assert info["run.commit"] == git(git_repo, "rev-parse", "HEAD")
        assert info["run.dirty"] is False
        assert info["run.workload"] == "bench.smoke"
        assert info["run.config_hash"] == config_fingerprint({"reps": 10})

    def test_no_timestamp_unless_supplied(self, tmp_path):
        # The module never reads the clock.
        assert "run.timestamp" not in run_info(repo=str(tmp_path))

