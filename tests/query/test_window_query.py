"""Batch WINDOW queries through the engine: rows and columnar agree."""

from __future__ import annotations

import pytest

from repro.common import Record, Variant
from repro.query.engine import QueryEngine


def timed_records(n: int = 50) -> list[Record]:
    return [
        Record.from_variants(
            {
                "kernel": Variant.of(f"k{i % 3}"),
                "time.start": Variant.of(i * 1.0),
                "time.duration": Variant.of(0.25 * (i % 4)),
            }
        )
        for i in range(n)
    ]


def summarize(records) -> dict:
    return {
        (
            r.get("kernel").to_string(),
            r.get("window.start").value,
            r.get("window.end").value,
        ): (r.get("count").value, r.get("sum#time.duration").value)
        for r in records
    }


QUERY = (
    "AGGREGATE count, sum(time.duration) GROUP BY kernel WINDOW tumbling(10s)"
)


class TestWindowedBatch:
    def test_windows_partition_the_stream(self):
        result = QueryEngine(QUERY).run(timed_records())
        got = summarize(result.records)
        # 50 events, 10s tumbling windows, 3 kernels -> 15 groups
        assert len(got) == 15
        assert sum(v[0] for v in got.values()) == 50
        assert got[("k0", 0.0, 10.0)][0] == 4  # i in {0, 3, 6, 9}

    def test_rows_and_columnar_backends_agree(self):
        records = timed_records()
        rows = QueryEngine(QUERY).run(records, backend="rows")
        col = QueryEngine(QUERY).run(records)
        assert summarize(rows.records) == summarize(col.records)

    def test_sliding_expands_groups(self):
        result = QueryEngine(
            "AGGREGATE count GROUP BY kernel WINDOW sliding(20s, 10s)"
        ).run(timed_records())
        counts = {}
        for r in result.records:
            counts[r.get("kernel").to_string()] = counts.get(
                r.get("kernel").to_string(), 0
            ) + r.get("count").value
        # every event lands in exactly two sliding windows
        assert sum(counts.values()) == 100

    def test_duration_fallback_windows_by_accumulated_time(self):
        records = [
            Record.from_variants(
                {"kernel": Variant.of("a"), "time.duration": Variant.of(1.0)}
            )
            for _ in range(30)
        ]
        result = QueryEngine(
            "AGGREGATE count GROUP BY kernel WINDOW tumbling(10s)"
        ).run(records)
        got = summarize(
            [r for r in result.records]
        ) if result.records and result.records[0].get("sum#time.duration") else {
            (
                r.get("kernel").to_string(),
                r.get("window.start").value,
                r.get("window.end").value,
            ): (r.get("count").value, None)
            for r in result.records
        }
        assert {k[1:] for k in got} == {(0.0, 10.0), (10.0, 20.0), (20.0, 30.0)}

    def test_untimed_records_are_dropped(self):
        records = timed_records(10) + [
            Record.from_variants({"kernel": Variant.of("k0")})
        ]
        result = QueryEngine(QUERY).run(records)
        assert sum(r.get("count").value for r in result.records) == 10

    def test_window_composes_with_where_and_order(self):
        result = QueryEngine(
            "AGGREGATE count WHERE kernel=k0 GROUP BY kernel "
            "WINDOW tumbling(25s) ORDER BY window.start"
        ).run(timed_records())
        starts = [r.get("window.start").value for r in result.records]
        assert starts == sorted(starts)
        assert all(r.get("kernel").to_string() == "k0" for r in result.records)
