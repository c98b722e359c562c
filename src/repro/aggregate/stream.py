"""Streaming aggregator facade and multi-stage helpers.

:class:`StreamAggregator` is the thin object the rest of the framework uses:
it owns one :class:`AggregationDB` and exposes the push/flush lifecycle.  It
also provides the two-stage helpers that the paper's workflows use — local
aggregation followed by a combine of partial results (cross-process
reduction), and re-aggregation of flushed profiles under a second scheme
(on-line profile -> off-line summary).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..common.record import Record
from .db import AggregationDB
from .scheme import AggregationScheme

__all__ = ["StreamAggregator", "aggregate_records", "combine_partials"]


class StreamAggregator:
    """Push-based aggregation with an explicit flush.

    >>> agg = StreamAggregator(AggregationScheme(ops=["count"], key=["function"]))
    >>> agg.push(Record({"function": "foo"}))
    >>> agg.push(Record({"function": "bar"}))
    >>> sorted(r.to_plain()["function"] for r in agg.flush())
    ['bar', 'foo']
    """

    def __init__(self, scheme: AggregationScheme) -> None:
        self.scheme = scheme
        self.db = AggregationDB(scheme)

    def push(self, record: Record) -> None:
        self.db.process(record)

    def push_all(self, records: Iterable[Record]) -> None:
        self.db.process_all(records)

    def combine(self, other: "StreamAggregator") -> None:
        """Merge another aggregator's partial state into this one."""
        self.db.combine(other.db)

    def flush(self, clear: bool = False) -> list[Record]:
        """Render output records; optionally reset the database."""
        out = self.db.flush()
        if clear:
            self.db.clear()
        return out

    @property
    def num_entries(self) -> int:
        return self.db.num_entries

    @property
    def num_processed(self) -> int:
        return self.db.num_processed


def aggregate_records(
    records: Iterable[Record], scheme: AggregationScheme
) -> list[Record]:
    """One-shot aggregation of a record stream (the off-line path)."""
    db = AggregationDB(scheme)
    db.process_all(records)
    return db.flush()


def combine_partials(
    partials: Sequence[AggregationDB], scheme: Optional[AggregationScheme] = None
) -> AggregationDB:
    """Sequentially merge partial databases into a fresh one.

    This is the reference (non-tree) reduction the simulator's tree reduction
    is property-tested against: any combine order must yield equal results.
    """
    if not partials and scheme is None:
        raise ValueError("need at least one partial or an explicit scheme")
    base_scheme = scheme if scheme is not None else partials[0].scheme
    merged = AggregationDB(base_scheme)
    for db in partials:
        merged.combine(db)
    return merged
