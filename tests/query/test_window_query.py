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


# -- one clock per input, on both backends -------------------------------------------

import math  # noqa: E402

import hypothesis.strategies as st  # noqa: E402
from hypothesis import given, settings  # noqa: E402

from repro import api  # noqa: E402
from repro.aggregate import AggregationDB  # noqa: E402
from repro.calql import parse_scheme  # noqa: E402
from repro.io import Dataset, write_colfile, write_records  # noqa: E402
from repro.window import EventClock, make_assigner, stamp_record  # noqa: E402

from ..conftest import examples  # noqa: E402

BACKENDS = ("auto", "rows")
WINDOWS = ["tumbling(2s)", "sliding(4s, 2s)", "tumbling(300ms)", "sliding(3s, 1s)"]
halves = st.integers(-2, 40).map(lambda i: 0.5 * i)
start_values = st.one_of(
    halves, halves, st.integers(0, 20), st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
)
durations = st.one_of(
    st.integers(0, 8).map(lambda i: 0.25 * i), st.sampled_from([0.1, math.nan, math.inf, 3])
)


@st.composite
def window_rows(draw) -> Record:
    entries = {"kernel": f"k{draw(st.integers(0, 2))}", "v": 0.5 * draw(st.integers(0, 6))}
    shape = draw(st.sampled_from(["start", "duration", "duration", "both", "neither"]))
    if shape in ("start", "both"):
        entries["time.start"] = draw(start_values)
    if shape in ("duration", "both"):
        entries["time.duration"] = draw(durations)
    return Record(entries)


def reference(text: str, inputs: list[list[Record]]) -> list:
    """The WINDOW answer written out record by record: one clock per input,
    each timed record copied once per window (``stamp_record``), every copy
    folded by the row engine under the window bounds as plain key labels."""
    query = parse_scheme(text.split(" WINDOW ")[0] + ", window.start, window.end")
    assigner = make_assigner(text.split(" WINDOW ")[1])
    db = AggregationDB(query)
    for records in inputs:
        clock = EventClock()
        for record in records:
            t = clock.event_time(record)
            if t is not None:
                db.process_all(stamp_record(record, t, assigner))
    return exact(db.flush())


def exact(records) -> list:
    """Output rows as data that tells 1 from 1.0 and 0.0 from -0.0, in a
    fixed order (the query has no ORDER BY)."""
    return sorted(sorted((k, v.type.value, repr(v.value)) for k, v in r.items()) for r in records)


@given(
    parts=st.lists(st.lists(window_rows(), max_size=12), min_size=1, max_size=3),
    window=st.sampled_from(WINDOWS),
    chunk_rows=st.sampled_from([1, 3, 5, 1000]),
)
@settings(max_examples=examples(60), deadline=None)
def test_offline_window_is_the_per_record_rule_one_clock_per_input(
    parts, window, chunk_rows, tmp_path_factory
):
    text = f"AGGREGATE count, sum(v) GROUP BY kernel WINDOW {window}"
    records = [r for part in parts for r in part]
    one_store = reference(text, [records])
    per_file = reference(text, parts)
    directory = tmp_path_factory.mktemp("window")
    whole = str(directory / "all.rcf")
    write_colfile(whole, records, chunk_rows=chunk_rows)
    paths = []
    for i, part in enumerate(parts):
        paths.append(str(directory / f"part{i}.rcf"))
        write_colfile(paths[-1], part, chunk_rows=chunk_rows)
    for backend in BACKENDS:
        # a record list, a Dataset and a (chunked) file are one input each
        assert exact(QueryEngine(text).run(records, backend=backend).records) == one_store
        assert exact(Dataset(records).query(text, backend=backend).records) == one_store
        assert exact(api.query(text, whole, backend=backend).records) == one_store
        assert exact(Dataset.from_file(whole).query(text, backend=backend).records) == one_store
        # a file list: one clock per file; a Dataset over it is one input
        assert exact(api.query(text, paths, backend=backend, jobs=1).records) == per_file
        assert exact(Dataset.from_files(paths).query(text, backend=backend).records) == one_store


def duration_records(n: int, step: float) -> list[Record]:
    return [Record({"kernel": f"k{i % 2}", "time.duration": step}) for i in range(n)]


def test_the_duration_clock_runs_across_the_chunks_of_one_file(tmp_path):
    text = "AGGREGATE count GROUP BY kernel WINDOW tumbling(2s) ORDER BY window.start, kernel"
    records = duration_records(100, 0.1)
    rcf, cali = str(tmp_path / "run.rcf"), str(tmp_path / "run.cali")
    write_colfile(rcf, records, chunk_rows=16)
    write_records(cali, records)
    want = QueryEngine(text).run(records)
    assert len(want) == 10
    assert {r.get("window.start").value for r in want} == {0.0, 2.0, 4.0, 6.0, 8.0}
    for backend in BACKENDS:
        for got in (api.query(text, rcf, backend=backend), api.query(text, cali, backend=backend),
                    Dataset.from_file(rcf).query(text, backend=backend)):
            assert str(got) == str(want)


def test_a_file_list_runs_one_clock_per_file_on_both_backends(tmp_path):
    text = "AGGREGATE count GROUP BY kernel WINDOW tumbling(2s) ORDER BY window.start"
    paths = []
    for i in range(2):
        paths.append(str(tmp_path / f"p{i}.cali"))
        write_records(paths[-1], [Record({"kernel": "x", "time.duration": 0.5})] * 8)
    for backend in BACKENDS:
        got = api.query(text, paths, backend=backend)
        assert got.rows(["window.start", "count"]) == [(0.0, 8), (2.0, 8)]
