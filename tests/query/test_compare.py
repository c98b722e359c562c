"""Tests for profile comparison."""

import os
import subprocess
import sys

import pytest

import repro
from repro.common import Record
from repro.query.compare import compare_profiles


def profile(values):
    return [Record({"kernel": k, "t": v}) for k, v in values.items()]


class TestCompare:
    def test_diff_and_ratio(self):
        base = profile({"a": 10.0, "b": 4.0})
        other = profile({"a": 15.0, "b": 2.0})
        result = compare_profiles(base, other, key=["kernel"], metrics=["t"])
        rows = {r["kernel"].value: r for r in result}
        assert rows["a"]["t.diff"].value == pytest.approx(5.0)
        assert rows["a"]["t.ratio"].value == pytest.approx(1.5)
        assert rows["b"]["t.diff"].value == pytest.approx(-2.0)

    def test_sorted_by_regression(self):
        base = profile({"a": 1.0, "b": 1.0, "c": 1.0})
        other = profile({"a": 2.0, "b": 5.0, "c": 0.5})
        result = compare_profiles(base, other, key=["kernel"], metrics=["t"])
        order = [r["kernel"].value for r in result]
        assert order == ["b", "a", "c"]

    def test_one_sided_keys(self):
        base = profile({"a": 1.0})
        other = profile({"b": 2.0})
        result = compare_profiles(base, other, key=["kernel"], metrics=["t"])
        rows = {r["kernel"].value: r for r in result}
        assert "t.base" in rows["a"] and "t.other" not in rows["a"]
        assert "t.diff" not in rows["a"]
        assert "t.other" in rows["b"] and "t.base" not in rows["b"]

    def test_zero_base_no_ratio(self):
        base = profile({"a": 0.0})
        other = profile({"a": 3.0})
        (row,) = compare_profiles(base, other, key=["kernel"], metrics=["t"])
        assert "t.ratio" not in row
        assert row["t.diff"].value == pytest.approx(3.0)

    def test_duplicate_keys_rejected(self):
        dup = [Record({"kernel": "a", "t": 1.0}), Record({"kernel": "a", "t": 2.0})]
        with pytest.raises(ValueError, match="duplicate key"):
            compare_profiles(dup, [], key=["kernel"], metrics=["t"])

    def test_query_pre_aggregation(self):
        base = [Record({"kernel": "a", "time.duration": v}) for v in (1.0, 2.0)]
        other = [Record({"kernel": "a", "time.duration": v}) for v in (2.0, 4.0)]
        result = compare_profiles(
            base,
            other,
            key=["kernel"],
            metrics=["sum#time.duration"],
            query="AGGREGATE sum(time.duration) GROUP BY kernel",
        )
        (row,) = result
        assert row["sum#time.duration.ratio"].value == pytest.approx(2.0)

    def test_custom_suffixes_and_columns(self):
        base = profile({"a": 1.0})
        other = profile({"a": 2.0})
        result = compare_profiles(
            base, other, key=["kernel"], metrics=["t"], suffixes=(".v1", ".v2")
        )
        assert "t.v1" in result.preferred_columns
        (row,) = result
        assert row["t.v1"].value == 1.0 and row["t.v2"].value == 2.0

    def test_multi_metric(self):
        base = [Record({"kernel": "a", "t": 1.0, "n": 10})]
        other = [Record({"kernel": "a", "t": 2.0, "n": 5})]
        (row,) = compare_profiles(base, other, key=["kernel"], metrics=["t", "n"])
        assert row["n.diff"].value == pytest.approx(-5.0)

    def test_ties_keep_first_seen_key_order_whatever_the_hash_seed(self):
        # one-sided keys have no diff: they keep the order they are first
        # seen in, base first, in every interpreter
        script = (
            "from repro.common import Record\n"
            "from repro.query.compare import compare_profiles\n"
            "base = [Record({'kernel': f'b{i}', 't': 1.0}) for i in range(6)]\n"
            "other = [Record({'kernel': f'o{i}', 't': 2.0}) for i in range(6)]\n"
            "print(compare_profiles(base, other, key=['kernel'], metrics=['t']))\n"
        )
        src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.abspath(src))
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                check=True,
            )
            outputs.add(done.stdout)
        (out,) = outputs
        kernels = [line.split()[0] for line in out.splitlines()[1:]]
        assert kernels == [f"b{i}" for i in range(6)] + [f"o{i}" for i in range(6)]
