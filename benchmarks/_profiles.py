"""Shared helper: save benchmark payloads into the versioned profile store.

Every ``BENCH_*.json`` writer also pushes its numeric result table into a
:class:`repro.store.ProfileStore` (default: ``.profile-store/`` at the repo
root, override with ``--profile-store`` or ``REPRO_PROFILE_STORE``; pass an
empty string to disable).  The payload's numeric leaves become one record
per metric and are aggregated through a real CalQL query, so benchmark
history is an ordinary profile — queryable, listable, and checkable::

    repro-query store list --store .profile-store --workload bench.columnar
    repro-query check --store .profile-store --workload bench.columnar

Saving is strictly best-effort: a broken store must never fail a benchmark
run, so every error is reported to stderr and swallowed.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Iterator, Optional

DEFAULT_STORE = os.path.join(os.path.dirname(__file__), "..", ".profile-store")

#: payload subtrees that are raw telemetry dumps, not benchmark results
_SKIP_KEYS = frozenset({"telemetry"})


def default_store_path() -> str:
    return os.environ.get("REPRO_PROFILE_STORE", os.path.abspath(DEFAULT_STORE))


def add_store_argument(parser) -> None:
    parser.add_argument(
        "--profile-store",
        default=default_store_path(),
        help="profile store directory for the result table "
        "('' disables saving; default: <repo>/.profile-store or "
        "$REPRO_PROFILE_STORE)",
    )


def _numeric_leaves(payload: Any, prefix: str = "") -> Iterator[tuple[str, float]]:
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key in _SKIP_KEYS:
                continue
            name = f"{prefix}.{key}" if prefix else str(key)
            yield from _numeric_leaves(value, name)
    elif isinstance(payload, bool):
        return
    elif isinstance(payload, (int, float)):
        yield prefix, float(payload)


def save_bench_profile(
    payload: dict,
    workload: str,
    store_dir: Optional[str],
    timestamp: Optional[float] = None,
) -> None:
    """Aggregate ``payload``'s numeric leaves and save them as a profile."""
    if not store_dir:
        return
    try:
        from repro.common import Record
        from repro.query.engine import QueryEngine
        from repro.store import ProfileStore

        rows = [
            Record({"bench.metric": name, "bench.value": value})
            for name, value in sorted(_numeric_leaves(payload))
        ]
        if not rows:
            return
        result = QueryEngine(
            "AGGREGATE avg(bench.value) GROUP BY bench.metric ORDER BY bench.metric"
        ).run(rows)
        entry = ProfileStore(store_dir).save(
            result,
            workload=workload,
            timestamp=time.time() if timestamp is None else timestamp,
            meta={"benchmark": payload.get("benchmark", workload)},
        )
        print(
            f"saved profile {entry.profile_id[:12]} "
            f"(workload {workload}) to {store_dir}",
            flush=True,
        )
    except Exception as exc:  # noqa: BLE001 - saving must never fail the bench
        print(f"profile-store save skipped: {exc}", file=sys.stderr)
