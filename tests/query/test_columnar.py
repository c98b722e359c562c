"""Tests: the column fold must match the streaming engine exactly."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.aggregate import AggregationDB, AggregationScheme, SumOp, aggregate_records, make_op
from repro.aggregate.ops import AliasedOp
from repro.calql import parse_scheme
from repro.common import Record, Variant
from repro.io.colfile import decode_batch_store, encode_batch, result_records
from repro.aggregate.table import StateTable
from repro.query.columnar import columnar_aggregate, columnar_db

from ..conftest import examples, record_lists


def canonical(records):
    return sorted(
        (tuple(sorted((k, v.to_string()) for k, v in r.items())) for r in records),
        key=repr,
    )


class _Calls(dict):
    """Call counts by function name; ``argsort_itemsizes`` lists the item
    size of each array ``np.argsort`` was handed."""

    argsort_itemsizes: list


@pytest.fixture
def numpy_calls(monkeypatch):
    """Counts of the ``np.unique`` / ``np.argsort`` calls made while active."""
    calls = _Calls(unique=0, argsort=0)
    calls.argsort_itemsizes = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "argsort":
                calls.argsort_itemsizes.append(np.asarray(args[0]).dtype.itemsize)
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    return calls


class _CustomSum(SumOp):
    """A user-defined kernel: no vector implementation may be assumed."""

    name = "customsum"


class TestSupport:
    """Every built-in operator folds a decoded batch through its column
    kernel: no ``Record`` is built for it."""

    @pytest.fixture(autouse=True)
    def counted_hydration(self, monkeypatch):
        from repro.io import colfile

        self.hydrated = []
        real = colfile.records_from_store

        def counting(store, rows=None):
            self.hydrated.append(len(store) if rows is None else len(rows))
            return real(store, rows)

        monkeypatch.setattr(colfile, "records_from_store", counting)

    BATCH = [
        Record({"k": f"k{i % 3}", "t": 0.25 * i, "u": 1.0 + i % 4}) for i in range(12)
    ]

    def fold(self, scheme):
        db = AggregationDB(scheme)
        db.process_all(self.BATCH)
        got = columnar_aggregate(decode_batch_store(encode_batch(self.BATCH)), scheme)
        assert canonical(result_records(got)) == canonical(db.flush())

    def test_supported_ops(self):
        self.fold(parse_scheme(
            "AGGREGATE count, sum(t), min(t), max(t), avg(t), variance(t), "
            "stddev(t), histogram(t,4,0,1), first(t), any(u), ratio(t,u), "
            "scale(t,2), percent_total(t) GROUP BY k"
        ))
        assert self.hydrated == []

    def test_aliased_ops_supported(self):
        self.fold(parse_scheme("AGGREGATE sum(t) AS total GROUP BY k"))
        assert self.hydrated == []

    def test_unsupported_ops_detected(self):
        # exact-type dispatch: a subclass may change update() semantics, so
        # it folds its own rows through update(), in the same table
        self.fold(AggregationScheme(ops=[_CustomSum(["t"])], key=["k"]))
        assert self.hydrated == [len(self.BATCH)]


class TestEquivalence:
    def test_basic(self):
        records = [
            Record({"k": "a", "t": 1.0}),
            Record({"k": "a", "t": 2.0}),
            Record({"k": "b", "t": 5}),
            Record({"t": 9.0}),
            Record({"k": "a"}),
        ]
        scheme = parse_scheme("AGGREGATE count, sum(t), min(t), max(t), avg(t) GROUP BY k")
        assert canonical(columnar_aggregate(records, scheme).records) == canonical(
            aggregate_records(records, scheme)
        )

    def test_empty_input(self):
        scheme = parse_scheme("AGGREGATE count GROUP BY k")
        assert columnar_aggregate([], scheme).records == []

    def test_no_key(self):
        records = [Record({"t": i}) for i in range(5)]
        scheme = parse_scheme("AGGREGATE sum(t), count")
        assert canonical(columnar_aggregate(records, scheme).records) == canonical(
            aggregate_records(records, scheme)
        )

    def test_where_predicate_applied(self):
        records = [Record({"k": "a", "t": 1.0}), Record({"k": "skip", "t": 100.0})]
        scheme = parse_scheme('AGGREGATE sum(t) WHERE k!="skip" GROUP BY k')
        out = columnar_aggregate(records, scheme).records
        assert len(out) == 1 and out[0]["k"].value == "a"

    def test_scheme_where_is_masked_over_the_offered_rows_without_a_record(
        self, no_record_hydration
    ):
        records = [Record({"k": "ab"[i % 2], "t": float(i)}) for i in range(40)]
        scheme = parse_scheme("AGGREGATE count, sum(t) WHERE k=a, t>=10 GROUP BY k")
        store = decode_batch_store(encode_batch(records))
        offered = np.arange(4, 40, 3)
        db, by_row = StateTable(scheme), AggregationDB(scheme)
        db.fold(store, rows=offered)
        by_row.process_all(records[i] for i in offered.tolist())
        assert canonical(db.flush()) == canonical(by_row.flush())
        assert (db.num_offered, db.num_processed) == (by_row.num_offered, by_row.num_processed)
        assert 0 < db.num_processed < len(offered)

    def test_aliased_output_label(self):
        records = [Record({"k": "a", "t": 2}), Record({"k": "a", "t": 3})]
        scheme = AggregationScheme(
            ops=[AliasedOp(make_op("sum", ["t"]), "total")], key=["k"]
        )
        (row,) = columnar_aggregate(records, scheme).records
        assert row["total"].value == 5

    def test_wide_key_no_overflow(self):
        # many distinct values in several key columns (radix product ~6e7)
        records = [
            Record({"a": i % 97, "b": f"v{i % 89}", "c": i % 83, "d": i % 79, "t": 1})
            for i in range(500)
        ]
        scheme = parse_scheme("AGGREGATE count, sum(t) GROUP BY a, b, c, d")
        assert canonical(columnar_aggregate(records, scheme).records) == canonical(
            aggregate_records(records, scheme)
        )

    def test_key_wider_than_int64_packing_is_re_encoded(self, numpy_calls):
        # eight key columns of ~1000 distinct values each: the radix product
        # (1001**8 ~ 1e24) passes 2**62 at the seventh column, so the packed
        # ids must be ranked mid-way; groups still differ after that point
        def value(i, j):
            return (i * (2 * j + 3)) % 1000

        records = []
        for i in range(2000):
            entries = {f"c{j}": value(i % 1000, j) for j in range(7)}
            entries["c7"] = value(i % 1000, 7) if i % 3 else value(i, 7) + 1000
            entries["t"] = 0.25 * (i % 17)
            records.append(Record(entries))
        scheme = parse_scheme(
            "AGGREGATE count, sum(t) GROUP BY " + ", ".join(f"c{j}" for j in range(8))
        )
        got = columnar_aggregate(records, scheme).records
        assert numpy_calls["unique"] == 2  # the guard, once, and the final densify
        want = aggregate_records(records, scheme)
        assert 1000 < len(want) < 2000
        assert canonical(got) == canonical(want)
        # ... and in the order a narrow key gets: lexicographic in each
        # column's first-seen values (a wrapped int64 would scramble it)
        keys = [tuple(r.get(f"c{j}").value for j in range(8)) for r in records]
        seen = [{} for _ in range(8)]
        for key in keys:
            for j, v in enumerate(key):
                seen[j].setdefault(v, len(seen[j]))
        in_order = sorted(set(keys), key=lambda k: [seen[j][v] for j, v in enumerate(k)])
        assert [tuple(r.get(f"c{j}").value for j in range(8)) for r in got] == in_order

    def test_no_sort_below_the_table_bound_and_a_16_bit_radix_sort_for_runs(self, numpy_calls):
        # a small key space numbers its groups by presence table: no sort
        records = [
            Record({"a": i % 7, "b": f"v{i % 5}", "t": 0.5 * i}) for i in range(200)
        ]
        columnar_aggregate(
            records, parse_scheme("AGGREGATE count, sum(t), avg(t) GROUP BY a, b")
        )
        assert numpy_calls == {"unique": 0, "argsort": 0}
        # runs for reduceat: one radix sort of a <= 16-bit key, shared by the three
        columnar_aggregate(
            records, parse_scheme("AGGREGATE min(t), max(t), first(b) GROUP BY a, b")
        )
        assert numpy_calls == {"unique": 0, "argsort": 1}
        assert all(size <= 2 for size in numpy_calls.argsort_itemsizes)
        # 200 x 200 possible keys over 200 rows: past the bound, one sort
        wide = [Record({"a": i, "b": (7 * i) % 200, "t": 1.0}) for i in range(200)]
        got = columnar_aggregate(wide, parse_scheme("AGGREGATE count GROUP BY a, b"))
        assert numpy_calls == {"unique": 1, "argsort": 1}
        assert len(got.records) == 200

    def test_two_key_output_order_is_lexicographic_in_first_seen_values(self):
        # group numbering (hence the order of un-ORDERed output) is part of
        # the contract: missing first, then each key column's values in
        # first-seen order, the first key column most significant
        rows = [("b", 2), ("a", 2), ("b", 1), (None, 1), ("a", 1), ("b", 2)]
        records = [
            Record({k: v for k, v in (("x", x), ("y", y)) if v is not None})
            for x, y in rows
        ]
        out = columnar_aggregate(records, parse_scheme("AGGREGATE count GROUP BY x, y")).records
        assert [(r.get("x").value, r.get("y").value) for r in out] == [
            (None, 1), ("b", 2), ("b", 1), ("a", 2), ("a", 1),
        ]


@given(record_lists)
@settings(max_examples=examples(60), deadline=None)
def test_matches_streaming_engine(recs):
    scheme = parse_scheme(
        "AGGREGATE count, sum(mpi.rank), min(mpi.rank), max(mpi.rank) "
        "GROUP BY function, kernel"
    )
    assert canonical(columnar_aggregate(recs, scheme).records) == canonical(
        aggregate_records(recs, scheme)
    )


# -- full operator set: columnar vs streaming, property-tested --------------------
#
# Group sets must be identical; values must agree within float tolerance
# (they are bit-identical for everything except percent_total, whose global
# denominator sums groups in a different order).

from repro.query.engine import QueryEngine  # noqa: E402


def assert_backends_equivalent(recs, query_text):
    engine = QueryEngine(query_text)
    col = engine.run(recs)
    row = engine.run(recs, backend="rows")
    key_labels = engine.scheme.key

    def by_key(result):
        table = {}
        for r in result:
            key = tuple(
                None if (v := r.get(lbl)).is_empty else (v.type.value, v.to_string())
                for lbl in key_labels
            )
            table[key] = r
        return table

    col_t, row_t = by_key(col), by_key(row)
    assert set(col_t) == set(row_t)
    for key, expect in row_t.items():
        got = col_t[key]
        assert set(got.labels()) == set(expect.labels())
        for lbl in expect.labels():
            a, b = got.get(lbl), expect.get(lbl)
            if b.is_numeric and a.is_numeric:
                assert a.to_double() == pytest.approx(
                    b.to_double(), rel=1e-9, abs=1e-12
                )
            else:
                assert a == b


def test_cross_type_key_representatives_match_streaming():
    # int 0 and double 0.0 are one group under Variant equality, but each
    # group's representative must be its own first record's exact Variant —
    # not the column-wide first-seen value.  Found by hypothesis: a double
    # function in one group leaked into the int-keyed group's output.
    recs = [
        Record.from_variants({"function": Variant.of(0)}),
        Record.from_variants({"function": Variant.of(0.0), "kernel": Variant.of(0)}),
    ]
    assert_backends_equivalent(
        recs, "AGGREGATE count, scale(time.duration,2.5) GROUP BY function, kernel"
    )


def test_cross_type_keys_merge_into_one_group():
    # ...while numerically equal keys in the *same* group position must
    # still collapse, exactly as the streaming engine's key tuple does.
    recs = [
        Record.from_variants({"function": Variant.of(1), "t": Variant.of(2.0)}),
        Record.from_variants({"function": Variant.of(1.0), "t": Variant.of(3.0)}),
        Record.from_variants({"function": Variant.of("x"), "t": Variant.of(5.0)}),
    ]
    assert_backends_equivalent(recs, "AGGREGATE count, sum(t) GROUP BY function")


NEW_OPERATORS = [
    "variance(time.duration)",
    "stddev(time.duration)",
    "percent_total(time.duration)",
    "scale(time.duration,2.5)",
    "ratio(time.duration,mpi.rank)",
    "first(kernel)",
    "any(function)",
    "histogram(time.duration,6,-8,8)",
    "histogram(mpi.rank)",
]


@pytest.mark.parametrize("op_text", NEW_OPERATORS)
@given(recs=record_lists)
@settings(max_examples=examples(25), deadline=None)
def test_new_operator_matches_streaming(op_text, recs):
    # mixed-type, missing-value columns come straight from the strategy
    assert_backends_equivalent(
        recs, f"AGGREGATE count, {op_text} GROUP BY function, kernel"
    )


WHERE_CLAUSES = [
    "kernel",  # exists
    "not(kernel)",  # negated exists
    'function="main"',  # string equality
    "mpi.rank=3",  # loose cross-type equality
    "time.duration>0.5",  # numeric ordering
    "mpi.rank<=2, time.duration>0",  # conjunction
    "not(mpi.rank!=1)",  # negated comparison (missing stays excluded)
]


@pytest.mark.parametrize("where_text", WHERE_CLAUSES)
@given(recs=record_lists)
@settings(max_examples=examples(25), deadline=None)
def test_vectorized_where_matches_streaming(where_text, recs):
    assert_backends_equivalent(
        recs,
        f"AGGREGATE count, sum(time.duration) WHERE {where_text} GROUP BY function",
    )


@given(record_lists)
@settings(max_examples=examples(30), deadline=None)
def test_columnar_db_interchangeable_with_streaming_db(recs):
    """A columnar-filled DB must combine/flush like a streamed one."""
    scheme = parse_scheme(
        "AGGREGATE count, sum(time.duration), variance(mpi.rank) GROUP BY function"
    )
    from repro.aggregate import AggregationDB

    streamed = AggregationDB(scheme)
    streamed.process_all(recs)
    vectored = columnar_db(recs, scheme)
    assert vectored.num_processed == streamed.num_processed
    # merge each into a fresh streamed half to exercise combine symmetry
    half = AggregationDB(scheme)
    half.process_all(recs)
    half.combine(vectored)
    double = AggregationDB(scheme)
    double.process_all(recs)
    double.process_all(recs)
    # combine-of-partials is mathematically but not bitwise associative
    # (variance moments; float sums past 2^53 round differently depending
    # on addition order, and an integral float sum renders as int), so
    # compare every numeric cell with a relative tolerance
    by_group = lambda d: str(d.get("function"))  # noqa: E731 — groups are unique by key
    got = sorted((r.to_plain() for r in half.flush()), key=by_group)
    want = sorted((r.to_plain() for r in double.flush()), key=by_group)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert set(a) == set(b)
        for key in a:
            numeric = isinstance(a[key], (int, float)) and not isinstance(
                a[key], bool
            )
            if numeric:
                assert a[key] == pytest.approx(b[key], rel=1e-9, abs=1e-12)
            else:
                assert a[key] == b[key]


@given(record_lists)
@settings(max_examples=examples(40), deadline=None)
def test_avg_matches_streaming_engine(recs):
    scheme = parse_scheme("AGGREGATE avg(time.duration) GROUP BY function")
    col = {
        tuple(sorted((k, v) for k, v in r.to_plain().items() if k == "function")): r
        for r in columnar_aggregate(recs, scheme).records
    }
    row = {
        tuple(sorted((k, v) for k, v in r.to_plain().items() if k == "function")): r
        for r in aggregate_records(recs, scheme)
    }
    assert set(col) == set(row)
    for key in col:
        a = col[key].get("avg#time.duration")
        b = row[key].get("avg#time.duration")
        assert a.is_empty == b.is_empty
        if not a.is_empty:
            assert a.to_double() == pytest.approx(b.to_double(), rel=1e-12, abs=1e-12)
