"""Serial oracles and failure accounting.

Every workload's outputs are compared with a serial reference computed by
the benchmark from the generated inputs — a :class:`StreamAggregator` or a
rows-backend :class:`QueryEngine` over exactly the records the protocol
accepted.  Results are compared as row sets keyed by the GROUP BY
attributes: counts, ``min#``/``max#`` columns and every non-float value
must match exactly; float sums within ``1e-9`` relative, because the
program combines partial states in another order than the oracle.

:class:`Ledger` holds one numerator and one denominator per workload:
operations attempted (batches, queries, ticks, oracle rows) and operations
failed (un-acked or given-up batches, errored queries, stale answers,
mismatching rows).  ``failed / attempted`` is the workload's failed
fraction; the contract's ``attempted``/``failed`` fields carry the pair.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

FLOAT_REL_TOL = 1e-9

__all__ = ["Ledger", "compare_rows", "reference_rows", "query_rows", "FLOAT_REL_TOL"]


class Ledger:
    """Attempted / failed operation counts plus the reasons for failures."""

    #: failure notes kept verbatim; beyond this only the count grows
    MAX_NOTES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        #: staged-replay stages whose public function is gone (value = null)
        self.skipped: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        """Account one operation; returns ``ok`` so call sites can chain."""
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < self.MAX_NOTES:
            self.notes.append(what)

    def ops(self, attempted: int, failed: int, what: str) -> None:
        """Account a group of like operations (e.g. a client's batches)."""
        self.attempted += attempted
        if failed:
            self.fail(f"{failed} of {attempted} {what} failed", failed)

    def rows(self, mismatches: Sequence[str], checked: int, what: str) -> None:
        """Account an oracle comparison: one operation per expected row."""
        self.attempted += max(checked, 1)
        for text in mismatches:
            self.fail(f"{what}: {text}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _plain(record) -> dict:
    return {label: value.value for label, value in record.items()}


def _key_of(row: dict, key: Sequence[str]) -> tuple:
    # Missing key attributes stay distinct from every present value; the
    # type name keeps 1 and "1" (and mixed-type columns) sortable apart.
    return tuple(
        ("", "") if row.get(label) is None else (type(row[label]).__name__, row[label])
        for label in key
    )


def _exact_column(label: str) -> bool:
    return label == "count" or label.endswith("count") or label.startswith(("min#", "max#"))


def compare_rows(
    got: Iterable,
    want: Iterable,
    key: Sequence[str],
    columns: Optional[Sequence[str]] = None,
    rel_tol: float = FLOAT_REL_TOL,
) -> tuple[list[str], int]:
    """Compare two record sets as row sets keyed by ``key``.

    Returns ``(mismatches, rows checked)``.  ``columns`` limits the value
    comparison (default: every column of the expected row), which is how a
    windowed server's hidden estimator columns are ignored.  A row missing
    on either side, a duplicate key, or a differing value is one mismatch.
    """
    want_rows: dict[tuple, dict] = {}
    mismatches: list[str] = []
    for record in want:
        row = _plain(record)
        want_rows[_key_of(row, key)] = row
    got_rows: dict[tuple, dict] = {}
    for record in got:
        row = _plain(record)
        k = _key_of(row, key)
        if k in got_rows:
            mismatches.append(f"duplicate row for key {k}")
        got_rows[k] = row
    for k in sorted(set(want_rows) | set(got_rows)):
        expected = want_rows.get(k)
        actual = got_rows.get(k)
        if expected is None:
            mismatches.append(f"unexpected row {k}")
            continue
        if actual is None:
            mismatches.append(f"missing row {k}")
            continue
        labels = columns if columns is not None else [
            label for label in expected if label not in key
        ]
        for label in labels:
            e, a = expected.get(label), actual.get(label)
            if isinstance(e, float) and isinstance(a, (int, float)) and not _exact_column(label):
                ok = math.isclose(a, e, rel_tol=rel_tol, abs_tol=1e-300)
            else:
                ok = a == e
            if not ok:
                mismatches.append(f"row {k} column {label}: got {a!r}, want {e!r}")
                break
    return mismatches, len(want_rows)


def reference_rows(scheme_text: str, batches: Iterable[Iterable]) -> list:
    """Serial reference: one :class:`StreamAggregator` over all records."""
    from repro.aggregate import StreamAggregator
    from repro.calql import parse_scheme

    aggregator = StreamAggregator(parse_scheme(scheme_text))
    for records in batches:
        aggregator.push_all(records)
    return aggregator.flush()


def query_rows(query_text: str, records) -> list:
    """Serial reference for a full CalQL query: the rows backend."""
    from repro.query import QueryEngine

    return QueryEngine(query_text).run(records, backend="rows").records
