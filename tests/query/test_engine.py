"""Tests for the off-line query engine."""

import pytest

from repro.common import CalQLSemanticError, Record
from repro.query import QueryEngine, run_query


class TestAggregationQueries:
    def test_basic_group_by(self, small_profile_records):
        res = run_query(
            "AGGREGATE count, sum(time.duration) GROUP BY kernel ORDER BY kernel",
            small_profile_records,
        )
        kernels = [r.get("kernel").value for r in res]
        assert kernels == [None, "k0", "k1", "k2"]

    def test_where_filters_before_aggregation(self, small_profile_records):
        res = run_query(
            "AGGREGATE count WHERE kernel GROUP BY kernel", small_profile_records
        )
        assert all(not r.get("kernel").is_empty for r in res)
        total = sum(r["count"].value for r in res)
        assert total == 20  # the two kernel-less records excluded

    def test_order_by_desc_with_limit(self, small_profile_records):
        res = run_query(
            "AGGREGATE sum(time.duration) GROUP BY kernel "
            "ORDER BY sum#time.duration DESC LIMIT 2",
            small_profile_records,
        )
        assert len(res) == 2
        values = [r["sum#time.duration"].value for r in res]
        assert values == sorted(values, reverse=True)

    def test_empty_input(self):
        res = run_query("AGGREGATE count GROUP BY kernel", [])
        assert len(res) == 0
        assert res.to_table() == "(no records)"

    def test_let_preprocessing(self):
        recs = [Record({"bytes": 100.0, "sec": 2.0}), Record({"bytes": 50.0, "sec": 1.0})]
        res = run_query("LET rate = bytes/sec AGGREGATE sum(rate), avg(rate)", recs)
        (rec,) = res
        assert rec["sum#rate"].value == pytest.approx(100.0)
        assert rec["avg#rate"].value == pytest.approx(50.0)

    def test_select_sets_column_order(self, small_profile_records):
        engine = QueryEngine(
            "SELECT mpi.rank, kernel, sum(time.duration) GROUP BY kernel, mpi.rank"
        )
        res = engine.run(small_profile_records)
        assert res.preferred_columns[:2] == ["mpi.rank", "kernel"]

    def test_multiple_sort_keys_stable(self, small_profile_records):
        res = run_query(
            "AGGREGATE sum(time.duration) GROUP BY kernel, mpi.rank "
            "ORDER BY kernel, mpi.rank DESC",
            small_profile_records,
        )
        rows = res.rows(["kernel", "mpi.rank"])
        for (k1, r1), (k2, r2) in zip(rows, rows[1:]):
            if k1 == k2 and r1 is not None and r2 is not None:
                assert r1 >= r2


class TestFilterQueries:
    def test_pure_filter(self, small_profile_records):
        res = run_query("SELECT kernel, time.duration WHERE mpi.rank=0", small_profile_records)
        assert 0 < len(res) < len(small_profile_records)
        assert all(set(r.labels()) <= {"kernel", "time.duration"} for r in res)

    def test_filter_keeps_record_granularity(self, small_profile_records):
        res = run_query("SELECT time.duration WHERE kernel", small_profile_records)
        assert len(res) == 20

    def test_where_only(self, small_profile_records):
        res = run_query("SELECT kernel WHERE not(kernel)", small_profile_records)
        assert len(res) == 2


class TestTwoStageWorkflows:
    def test_reaggregation_of_profiles(self, small_profile_records):
        """Paper VI-B: offline sum over online per-process counts."""
        stage1 = run_query(
            "AGGREGATE count GROUP BY kernel, mpi.rank", small_profile_records
        )
        stage2 = run_query(
            "AGGREGATE sum(count) GROUP BY kernel", list(stage1)
        )
        direct = run_query("AGGREGATE count GROUP BY kernel", small_profile_records)
        two_stage = {r.get("kernel").value: r["sum#count"].value for r in stage2}
        one_stage = {r.get("kernel").value: r["count"].value for r in direct}
        assert two_stage == one_stage

    def test_online_offline_equivalence_of_sum(self, small_profile_records):
        """Shifting the aggregation stage must not change the result."""
        per_rank = run_query(
            "AGGREGATE sum(time.duration) GROUP BY kernel, mpi.rank",
            small_profile_records,
        )
        shifted = run_query(
            "AGGREGATE sum(sum#time.duration) GROUP BY kernel", list(per_rank)
        )
        direct = run_query(
            "AGGREGATE sum(time.duration) GROUP BY kernel", small_profile_records
        )
        a = {r.get("kernel").value: r["sum#sum#time.duration"].value for r in shifted}
        b = {r.get("kernel").value: r["sum#time.duration"].value for r in direct}
        for key, value in b.items():
            assert a[key] == pytest.approx(value)


class TestResults:
    def test_column_and_rows(self, small_profile_records):
        res = run_query(
            "AGGREGATE count GROUP BY kernel ORDER BY kernel", small_profile_records
        )
        counts = res.column("count")
        assert sum(v.value for v in counts) == 22
        rows = res.rows(["kernel", "count"])
        assert rows[0] == (None, 2)

    def test_to_csv(self, small_profile_records):
        res = run_query(
            "AGGREGATE count GROUP BY kernel ORDER BY kernel FORMAT csv",
            small_profile_records,
        )
        text = str(res)
        assert text.splitlines()[0].startswith("kernel,count")

    def test_to_json(self, small_profile_records):
        res = run_query("AGGREGATE count GROUP BY kernel FORMAT json", small_profile_records)
        assert '"format": "repro-json"' in str(res)

    def test_format_default_table(self, small_profile_records):
        res = run_query("AGGREGATE count GROUP BY kernel", small_profile_records)
        assert "kernel" in str(res).splitlines()[0]

    def test_getitem_iteration(self, small_profile_records):
        res = run_query("AGGREGATE count GROUP BY kernel", small_profile_records)
        assert res[0] in list(res)


class TestPartialAPI:
    def test_make_db_feed_finalize(self, small_profile_records):
        engine = QueryEngine("AGGREGATE count GROUP BY kernel")
        db1 = engine.make_db()
        db2 = engine.make_db()
        engine.feed(db1, small_profile_records[:10])
        engine.feed(db2, small_profile_records[10:])
        db1.merge(db2)
        res = engine.finalize(db1)
        direct = engine.run(small_profile_records)
        assert {tuple(sorted(r.to_plain().items())) for r in res} == {
            tuple(sorted(r.to_plain().items())) for r in direct
        }

    def test_make_db_without_aggregation_raises(self):
        engine = QueryEngine("SELECT kernel WHERE kernel")
        with pytest.raises(ValueError):
            engine.make_db()


class TestValidation:
    def test_semantic_errors_surface_at_construction(self):
        QueryEngine("AGGREGATE histogram(x)")  # default params: fine
        # histogram with wrong arg count
        with pytest.raises(CalQLSemanticError):
            QueryEngine("AGGREGATE histogram(x, 5, 1)")

    def test_bare_attribute_defaults_to_sum(self):
        engine = QueryEngine("AGGREGATE count, time.duration GROUP BY mpi.function")
        assert engine.scheme is not None
        assert "sum#time.duration" in engine.scheme.output_labels


class TestRecordsFormat:
    def test_records_format_prints_reprs(self, small_profile_records):
        res = run_query(
            "AGGREGATE count GROUP BY kernel FORMAT records", small_profile_records
        )
        assert str(res).count("Record(") == len(res)
