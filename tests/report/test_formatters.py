"""Tests for the report formatters."""

import pytest

from repro.common import Record
from repro.report import (
    TableOptions,
    format_barchart,
    format_distribution,
    format_grouped_bars,
    format_series,
    format_table,
    format_tree,
    pivot_series,
)


@pytest.fixture
def records():
    return [
        Record({"function": "foo", "loop.iteration": 0, "count": 2, "sum#time": 20}),
        Record({"function": "bar", "loop.iteration": 0, "count": 1, "sum#time": 10}),
        Record({"loop.iteration": 0, "count": 1, "sum#time": 10}),
    ]


class TestTable:
    def test_header_and_alignment(self, records):
        text = format_table(records, preferred=["function", "loop.iteration"])
        lines = text.splitlines()
        assert lines[0].split() == ["function", "loop.iteration", "count", "sum#time"]
        # numeric columns right-aligned: count column values end at same offset
        assert "foo" in lines[1]

    def test_missing_cells_blank(self, records):
        text = format_table(records, preferred=["function"])
        last = text.splitlines()[-1]
        assert not last.startswith("foo") and not last.startswith("bar")

    def test_max_rows_elision(self, records):
        text = format_table(records, options=TableOptions(max_rows=1))
        assert "more rows" in text

    def test_empty(self):
        assert format_table([]) == "(no records)"

    def test_float_precision(self):
        recs = [Record({"v": 1.23456789})]
        text = format_table(recs, options=TableOptions(float_precision=3))
        assert "1.23" in text and "1.2345" not in text

    def test_integral_floats_rendered_as_ints(self):
        text = format_table([Record({"v": 10.0})])
        assert " 10" in text or "10" in text.splitlines()[1]

    @pytest.mark.parametrize("value, text", [
        (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"),
    ])
    def test_non_finite_floats_rendered_as_variant_text(self, value, text):
        table = format_table([Record({"v": value})])
        assert table.splitlines()[1].strip() == text == Record({"v": value}).get("v").to_string()


class TestTree:
    def test_nested_paths_indent(self):
        recs = [
            Record({"function": "main", "time": 1}),
            Record({"function": "main/solve", "time": 2}),
            Record({"function": "main/solve/mg", "time": 3}),
            Record({"time": 4}),
        ]
        text = format_tree(recs, "function", ["time"])
        lines = text.splitlines()
        assert any(line.startswith("main") for line in lines)
        assert any(line.startswith("  solve") for line in lines)
        assert any(line.startswith("    mg") for line in lines)
        assert any(line.startswith("(none)") for line in lines)

    def test_metrics_aligned(self):
        recs = [Record({"f": "a", "t": 1}), Record({"f": "b", "t": 100})]
        text = format_tree(recs, "f", ["t"])
        assert "100" in text


class TestBarcharts:
    def test_barchart_scaling(self):
        text = format_barchart([("big", 100.0), ("small", 10.0)], width=20)
        lines = text.splitlines()
        big_bar = lines[0].count("#")
        small_bar = lines[1].count("#")
        assert big_bar == 20
        assert 1 <= small_bar <= 3

    def test_barchart_zero_values(self):
        text = format_barchart([("zero", 0.0), ("one", 1.0)])
        assert "zero" in text

    def test_barchart_empty(self):
        assert format_barchart([]) == "(no data)"

    def test_grouped_bars(self):
        text = format_grouped_bars(
            ["t0", "t1"],
            {"level 0": [1.0, 1.0], "level 2": [0.5, 2.0]},
            width=10,
            title="AMR",
        )
        assert text.startswith("AMR")
        assert text.count("level 0") == 2

    def test_distribution_stats(self):
        text = format_distribution(
            [("total", [1.0, 2.0, 3.0]), ("empty", [])], width=20
        )
        assert "min=1" in text and "max=3" in text and "med=2" in text
        assert "(no values)" in text


class TestSeries:
    def test_pivot(self):
        recs = [
            Record({"step": 0, "level": 0, "t": 1.0}),
            Record({"step": 0, "level": 1, "t": 2.0}),
            Record({"step": 1, "level": 0, "t": 1.5}),
        ]
        xs, names, series = pivot_series(recs, "step", "level", "t")
        assert xs == [0, 1]
        assert names == ["0", "1"]
        assert series["0"] == [1.0, 1.5]
        assert series["1"] == [2.0, 0.0]  # missing cell filled

    def test_pivot_accumulates_duplicates(self):
        recs = [
            Record({"step": 0, "level": 0, "t": 1.0}),
            Record({"step": 0, "level": 0, "t": 2.0}),
        ]
        _, _, series = pivot_series(recs, "step", "level", "t")
        assert series["0"] == [3.0]

    def test_format_series(self):
        text = format_series([0, 1], {"a": [1.0, 2.0], "b": [3.0, 4.0]}, x_label="step")
        lines = text.splitlines()
        assert lines[0].split() == ["step", "a", "b"]
        assert lines[1].split() == ["0", "1", "3"]
