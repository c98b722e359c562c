"""Tests for the two engines (every aggregation folds a state table;
``backend="rows"`` is the reference row engine) and the cached store."""

import pytest

from repro.aggregate import StateTable, SumOp, default_registry
from repro.common import QueryError, Record
from repro.io import Dataset
from repro.query import QueryEngine, QueryOptions

RECORDS = [
    Record({"kernel": f"k{i % 4}", "time.duration": float(i), "mpi.rank": i % 8})
    for i in range(200)
]


class _CustomSum(SumOp):
    name = "customsum"


def custom_registry():
    reg = default_registry()
    reg.register("customsum", lambda args: _CustomSum(args))
    return reg


class TestBackendSelection:
    def test_explicit_rows_override(self, monkeypatch):
        # backend="rows" is the reference row engine: no state table folds
        def refuse(*args, **kwargs):
            raise AssertionError("backend='rows' folded a state table")

        monkeypatch.setattr(StateTable, "fold", refuse)
        engine = QueryEngine("AGGREGATE count GROUP BY kernel ORDER BY kernel")
        got = engine.run(RECORDS, backend="rows")
        assert got.rows(["kernel", "count"]) == [(f"k{i}", 50) for i in range(4)]

    def test_pure_filter_always_streams(self):
        engine = QueryEngine("SELECT kernel WHERE mpi.rank=0")
        got = engine.run(RECORDS)
        assert [r.get("kernel").value for r in got] == ["k0"] * 25
        with pytest.raises(ValueError, match="AGGREGATE"):
            engine.make_db()

    def test_columnar_on_pure_filter_is_an_error(self):
        # "columnar" is no longer a backend: every aggregation folds a table
        engine = QueryEngine("SELECT kernel")
        with pytest.raises(QueryError, match="unknown backend"):
            engine.run(RECORDS, backend="columnar")
        with pytest.raises(ValueError, match="backend"):
            QueryOptions(backend="columnar")

    def test_columnar_on_unsupported_op_is_an_error(self):
        engine = QueryEngine(
            "AGGREGATE customsum(time.duration) GROUP BY kernel",
            registry=custom_registry(),
        )
        with pytest.raises(QueryError, match="unknown backend"):
            engine.run(RECORDS, backend="columnar")

    def test_unknown_backend_rejected(self):
        engine = QueryEngine("AGGREGATE count GROUP BY kernel")
        with pytest.raises(QueryError, match="unknown backend"):
            engine.run(RECORDS, backend="gpu")


class TestPipelineClauses:
    """ORDER BY / LIMIT / FORMAT / SELECT must behave identically downstream."""

    QUERY = (
        "SELECT kernel, sum#time.duration "
        "AGGREGATE count, sum(time.duration) GROUP BY kernel "
        "ORDER BY sum#time.duration DESC LIMIT 3 FORMAT csv"
    )

    def test_order_limit_format_identical(self):
        engine = QueryEngine(self.QUERY)
        col = engine.run(RECORDS)
        row = engine.run(RECORDS, backend="rows")
        assert len(col) == 3
        assert str(col) == str(row)
        assert col.preferred_columns == row.preferred_columns

    def test_let_queries_run_columnar(self):
        engine = QueryEngine(
            "LET ms = time.duration * 1000 "
            "AGGREGATE sum(ms) GROUP BY kernel ORDER BY kernel"
        )
        col = engine.run(RECORDS)
        row = engine.run(RECORDS, backend="rows")
        assert col.rows(["kernel", "sum#ms"]) == pytest.approx(
            row.rows(["kernel", "sum#ms"])
        )


class TestDatasetIntegration:
    def make_dataset(self):
        return Dataset(list(RECORDS))

    def test_query_backend_threading(self):
        ds = self.make_dataset()
        a = ds.query("AGGREGATE count GROUP BY kernel ORDER BY kernel")
        b = ds.query("AGGREGATE count GROUP BY kernel ORDER BY kernel", backend="rows")
        assert a.rows(["kernel", "count"]) == b.rows(["kernel", "count"])

    def test_column_store_cached_across_queries(self):
        ds = self.make_dataset()
        ds.query("AGGREGATE count GROUP BY kernel")
        store = ds.column_store()
        ds.query("AGGREGATE sum(time.duration) GROUP BY kernel")
        assert ds.column_store() is store

    def test_column_store_invalidated_on_extend(self):
        ds = self.make_dataset()
        before = ds.column_store()
        codes, values = before.interned("kernel")
        assert len(codes) == len(RECORDS)
        ds.extend([Record({"kernel": "fresh", "time.duration": 1.0})])
        after = ds.column_store()
        assert after is not before
        res = ds.query("AGGREGATE count GROUP BY kernel")
        assert sum(r["count"].value for r in res) == len(RECORDS) + 1

    def test_store_interning_roundtrip(self):
        ds = self.make_dataset()
        codes, values = ds.column_store().interned("kernel")
        rebuilt = [None if c < 0 else values[c].to_string() for c in codes]
        assert rebuilt == [r.get("kernel").to_string() for r in RECORDS]

    def test_store_numeric_lookup_handles_missing(self):
        ds = Dataset(
            [Record({"t": 1.5}), Record({"t": "oops"}), Record({}), Record({"t": 2})]
        )
        vals, ok = ds.column_store().numeric("t")
        assert list(ok) == [True, False, False, True]
        assert vals[0] == 1.5 and vals[3] == 2.0


class TestOneFold:
    """The default engine folds every aggregation — a kernel-less operator
    included — into a state table, and answers exactly what the reference
    row engine answers on every entry point (``exact_value``: Variant type
    and double bits)."""

    QUERY = (
        "AGGREGATE count, customsum(time.duration) WHERE mpi.rank<4 "
        "GROUP BY kernel, mpi.rank ORDER BY kernel, mpi.rank DESC LIMIT 14"
    )
    #: dyadic durations: a per-file partial merged at the parent sums to the
    #: same bits as one pass over every record
    DATA = [
        Record({"kernel": f"k{i % 4}", "time.duration": (i % 7) * 0.25, "mpi.rank": i % 5})
        for i in range(200)
    ]

    @pytest.fixture(autouse=True)
    def customsum_by_default(self, monkeypatch):
        # api.query and the pool workers compile the text with the default
        # registry; the workers are forked after the patch and inherit it
        from repro.calql import semantics

        monkeypatch.setattr(semantics, "default_registry", custom_registry)

    @staticmethod
    def exact(result):
        from .test_column_fold import exact_value

        return [{label: exact_value(v) for label, v in r.items()} for r in result.records]

    def test_every_entry_point_equals_the_rows_engine(self, tmp_path):
        import repro.api as api
        from repro.io import write_colfile, write_records
        from repro.query import parallel_query_files

        want = self.exact(QueryEngine(self.QUERY).run(self.DATA, backend="rows"))
        assert len(want) == 14 and "customsum#time.duration" in want[0]
        assert self.exact(QueryEngine(self.QUERY).run(self.DATA)) == want
        assert self.exact(Dataset(list(self.DATA)).query(self.QUERY)) == want

        rcf, cali = str(tmp_path / "all.rcf"), str(tmp_path / "all.cali")
        write_colfile(rcf, self.DATA, chunk_rows=32)  # 7 chunks
        write_records(cali, self.DATA)
        halves = [str(tmp_path / "a.rcf"), str(tmp_path / "b.cali")]
        write_colfile(halves[0], self.DATA[:120], chunk_rows=50)
        write_records(halves[1], self.DATA[120:])
        for source in (rcf, cali, halves):
            assert self.exact(api.query(self.QUERY, source)) == want, source
            assert self.exact(api.query(self.QUERY, source, backend="rows")) == want, source
        got = parallel_query_files(self.QUERY, halves, QueryOptions(jobs=2))
        assert self.exact(got) == want
