"""Run metadata capture: what ran, and from what tree.

A measurement is only comparable to another if you know *what ran*: which
commit, whether the tree was dirty, which interpreter and numpy, how many
cores.  :func:`run_info` gathers exactly that as flat ``run.*`` labels; the
benchmark suite (``benchmarks/suite/run.py``) stamps every result file with
them.

Everything here is best-effort and cheap: git questions are answered by one
subprocess call per repository path per process (cached), and a tree that
is not a git checkout simply yields no ``run.commit``.  Nothing here reads
the wall clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Any, Mapping, Optional

__all__ = ["config_fingerprint", "git_state", "run_info"]

#: cache of ``git_state`` answers per absolute repository path — a benchmark
#: run labels one result per workload from the same checkout
_git_cache: dict[str, tuple[Optional[str], Optional[bool]]] = {}


def git_state(repo: Optional[str] = None) -> tuple[Optional[str], Optional[bool]]:
    """``(commit, dirty)`` of the checkout containing ``repo`` (default cwd).

    ``(None, None)`` when the directory is not inside a git work tree or git
    is unavailable.  Answers are cached per path for the process lifetime;
    call :func:`reset_git_cache` if the checkout changes underneath you.
    """
    path = os.path.abspath(repo or os.getcwd())
    if path in _git_cache:
        return _git_cache[path]
    commit: Optional[str] = None
    dirty: Optional[bool] = None
    try:
        proc = subprocess.run(
            ["git", "-C", path, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip() or None
        if commit:
            proc = subprocess.run(
                ["git", "-C", path, "status", "--porcelain"],
                capture_output=True,
                text=True,
                timeout=10,
            )
            if proc.returncode == 0:
                dirty = bool(proc.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        commit, dirty = None, None
    _git_cache[path] = (commit, dirty)
    return commit, dirty


def reset_git_cache() -> None:
    """Forget cached git answers (tests, long-lived daemons)."""
    _git_cache.clear()


def config_fingerprint(config: Optional[Mapping[str, Any]]) -> Optional[str]:
    """Short stable hash of a configuration mapping (12 hex chars).

    Canonical JSON (sorted keys, no whitespace) hashed with sha256, so the
    fingerprint is insensitive to dict ordering and stable across processes.
    Non-JSON-able values are folded in via ``repr``.  ``None`` in, ``None``
    out — a run without a config gets no ``run.config_hash``.
    """
    if config is None:
        return None
    canonical = json.dumps(
        dict(config), sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def run_info(
    repo: Optional[str] = None,
    workload: Optional[str] = None,
    config: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """Flat ``run.*`` metadata labels describing the current run.

    Always present: ``run.python``, ``run.cpu_count``, and ``run.numpy``
    (when numpy imports).  Present when derivable/supplied: ``run.commit``
    and ``run.dirty`` (git state of ``repo``, default cwd),
    ``run.workload``, and ``run.config_hash`` (fingerprint of ``config``).
    """
    info: dict[str, Any] = {
        "run.python": sys.version.split()[0],
        "run.cpu_count": os.cpu_count() or 1,
    }
    try:
        import numpy

        info["run.numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        pass
    commit, dirty = git_state(repo)
    if commit is not None:
        info["run.commit"] = commit
    if dirty is not None:
        info["run.dirty"] = dirty
    if workload is not None:
        info["run.workload"] = workload
    fingerprint = config_fingerprint(config)
    if fingerprint is not None:
        info["run.config_hash"] = fingerprint
    return info
