"""Profile comparison: diff two datasets along a common key.

A standard performance-analysis workflow the flexible data model makes
trivial: aggregate two runs (before/after a change, two machine
configurations, two ranks...) under the same scheme, then join their
outputs on the aggregation key and compute absolute and relative deltas
per metric.

>>> result = compare_profiles(before, after, key=["kernel"],
...                           metrics=["sum#time.duration"])
>>> print(result.to_table())
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..calql.ast import OrderSpec
from ..common.record import Record
from ..common.variant import ValueType, Variant
from ..io.colfile import ColumnStore
from .engine import QueryResult, order_rows

__all__ = ["compare_profiles"]


def compare_profiles(
    base: Iterable[Record],
    other: Iterable[Record],
    key: Sequence[str],
    metrics: Sequence[str],
    suffixes: tuple[str, str] = (".base", ".other"),
    query: Optional[str] = None,
) -> QueryResult:
    """Join two record sets on ``key`` and diff their ``metrics``.

    When ``query`` is given, both inputs are first aggregated with it (it
    must GROUP BY exactly ``key``); otherwise the inputs are assumed to be
    already-aggregated profiles with at most one record per key.

    Output records carry, per metric ``m``: ``m<suffixes[0]>``,
    ``m<suffixes[1]>``, ``m.diff`` (other - base) and ``m.ratio``
    (other / base, omitted when base is 0).  Keys present in only one input
    get only that side's value and no diff/ratio.  Results are sorted by
    the first metric's diff, largest regression first; ties (and keys
    without a diff) keep the order keys are first seen in, base then other.
    """
    if query is not None:
        from .engine import QueryEngine

        engine = QueryEngine(query)
        base = list(engine.run(base))
        other = list(engine.run(other))

    def index(records: Iterable[Record]) -> dict[tuple, Record]:
        table: dict[tuple, Record] = {}
        for record in records:
            k = tuple(record.get(label) for label in key)
            if k in table:
                raise ValueError(
                    "duplicate key in input profile: "
                    + ", ".join(f"{label}={v.to_string()}" for label, v in zip(key, k))
                    + " — aggregate the inputs first (pass query=...)"
                )
            table[k] = record
        return table

    base_by_key = index(base)
    other_by_key = index(other)

    out: list[Record] = []
    for k in [*base_by_key, *(k for k in other_by_key if k not in base_by_key)]:
        entries: dict[str, Variant] = {}
        for label, value in zip(key, k):
            if value is not None and not value.is_empty:
                entries[label] = value
        b = base_by_key.get(k)
        o = other_by_key.get(k)
        for metric in metrics:
            bv = b.get(metric) if b is not None else Variant.empty()
            ov = o.get(metric) if o is not None else Variant.empty()
            if not bv.is_empty and bv.is_numeric:
                entries[f"{metric}{suffixes[0]}"] = bv
            if not ov.is_empty and ov.is_numeric:
                entries[f"{metric}{suffixes[1]}"] = ov
            if bv.is_numeric and ov.is_numeric and not bv.is_empty and not ov.is_empty:
                diff = ov.to_double() - bv.to_double()
                entries[f"{metric}.diff"] = Variant(ValueType.DOUBLE, diff)
                if bv.to_double() != 0.0:
                    entries[f"{metric}.ratio"] = Variant(
                        ValueType.DOUBLE, ov.to_double() / bv.to_double()
                    )
        out.append(Record.from_variants(entries))

    store = ColumnStore.from_records(out)
    store = store.take(order_rows(store, [OrderSpec(f"{metrics[0]}.diff", ascending=False)]))
    preferred = list(key)
    for metric in metrics:
        preferred += [
            f"{metric}{suffixes[0]}",
            f"{metric}{suffixes[1]}",
            f"{metric}.diff",
            f"{metric}.ratio",
        ]
    return QueryResult(store, preferred)
