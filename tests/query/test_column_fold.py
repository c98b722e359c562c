"""The column kernels leave a StateTable bit-identical to the row engine's fold."""

import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.aggregate import AggregationDB, AggregationScheme
from repro.calql import parse_scheme
from repro.common import Record, ValueType, Variant
from repro.io.colfile import ColumnStore, decode_batch_store, encode_batch
from repro.aggregate.table import StateTable
from repro.query.columnar import columnar_db
from repro.query.engine import QueryEngine
from repro.window import WindowedAggregationDB

from ..conftest import examples, raw_values, records
from .test_columnar import _CustomSum

#: every built-in operator (each has a column kernel), an alias included
SCHEME = parse_scheme(
    "AGGREGATE count, sum(time.duration), min(time.duration), max(time.duration), "
    "avg(x), variance(time.duration), stddev(x), est_moments(x), "
    "histogram(time.duration,4,0,1), first(function), any(x), ratio(time.duration,x), "
    "scale(x,2), percent_total(time.duration), sum(x) AS total "
    "GROUP BY kernel, mpi.rank"
)

#: key values that collide under Variant equality (1 / 1.0, 0.0 / -0.0 / 0),
#: and ones that must not (True, "1")
key_values = st.sampled_from([1, 1.0, 2, True, "1", "k", -0.0, 0.0, 0])
#: mostly sums whose last bits depend on the order they were added in, and
#: extrema whose sign depends on which of two equal zeros came first
metric_values = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 3, True, 0.0, -0.0, float("nan")]),
    raw_values,
)
weights = st.one_of(
    st.floats(min_value=0.25, max_value=64.0),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([True, "heavy"]),  # not weights: fold as 1.0
)


@st.composite
def rows(draw):
    """A conftest record, usually with more of what the scheme reads."""
    entries = dict(draw(records()).items())
    for label, values, one_in in (
        ("kernel", key_values, 4), ("mpi.rank", st.sampled_from([1, 1.0, 2]), 4),
        ("time.duration", metric_values, 4), ("x", metric_values, 4),
        ("function", raw_values, 4), ("sample.weight", weights, 2),
    ):
        if draw(st.integers(1, one_in)) > 1:  # missing one time in ``one_in``
            entries[label] = Variant.of(draw(values))
    return Record.from_variants(entries)


@st.composite
def steps(draw):
    """Batches of rows, each with the row subset to fold and what happens to
    the state before it: nothing, a reset (``take()``), a ``pop`` or the
    states of a row-engine DB merged in."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        batch = draw(st.lists(rows(), min_size=1, max_size=12))
        chosen = draw(st.lists(st.booleans(), min_size=len(batch), max_size=len(batch)))
        between = draw(st.sampled_from(["nothing", "nothing", "clear", "pop", "merge"]))
        out.append((batch, [i for i, keep in enumerate(chosen) if keep], between))
    return out


def bits(x: float):
    """A float by its bit pattern (``-0.0`` is not ``0.0``); any nan is "nan"."""
    return "nan" if x != x else struct.pack("<d", x)


def exact_value(v: Variant):
    return (v.type, bits(v.value) if v.type is ValueType.DOUBLE else v.value)


def exact(db):
    """export_states() of a DB or a state table with nothing equal that is
    not the same: key and ``first`` Variants by type, doubles and float
    cells by bit pattern, a nan equal to a nan, and cells by type (``1`` is
    not ``1.0``)."""

    def cell(c):
        if isinstance(c, Variant):
            return exact_value(c)
        return (type(c).__name__, bits(c) if isinstance(c, float) else c)

    return sorted(
        (
            (
                sorted((label, *exact_value(v)) for label, v in entries.items()),
                [[cell(c) for c in state] for state in states],
            )
            for entries, states in db.export_states()
        ),
        key=repr,
    )


def without_ranks_at_most(db, mark):
    """The row engine's twin of ``StateTable.pop("mpi.rank", mark)``: ``db``
    without the keys whose ``mpi.rank`` is a number ``<= mark``."""

    def closed(entries):
        rank = entries.get("mpi.rank")
        return rank is not None and rank.is_numeric and float(rank.value) <= mark

    kept = AggregationDB(db.scheme, "generic")
    kept.load_states(
        [(entries, states) for entries, states in db.export_states() if not closed(entries)],
        db.num_offered, db.num_processed,
    )
    return kept


@given(steps())
@settings(max_examples=examples(150), deadline=None)
def test_column_fold_is_bit_identical_to_process(batches):
    by_rows, table = AggregationDB(SCHEME, "generic"), StateTable(SCHEME)
    for batch, chosen, between in batches:
        if between == "clear":
            table.take()
            by_rows.clear()
            by_rows.num_offered = by_rows.num_processed = 0
        elif between == "pop":
            table.pop("mpi.rank", 1.5)
            by_rows = without_ranks_at_most(by_rows, 1.5)
        elif between == "merge":
            other = AggregationDB(SCHEME, "generic")
            other.process_all(batch[::2])
            table.merge(StateTable.from_states(SCHEME, other.export_states()))
            by_rows.load_states(other.export_states())
        assert exact(table) == exact(by_rows)
        store = decode_batch_store(encode_batch(batch))
        table.fold(store, rows=np.array(chosen, dtype=np.int64))
        by_rows.process_all(batch[i] for i in chosen)
        assert exact(table) == exact(by_rows)
    assert (table.num_offered, table.num_processed) == (
        by_rows.num_offered, by_rows.num_processed
    )


def test_a_popped_group_is_not_resurrected():
    scheme = parse_scheme("AGGREGATE count, sum(t) GROUP BY k, end")
    table = StateTable(scheme)
    batch = [Record({"k": "a", "end": 1.0, "t": 1.5}), Record({"k": "b", "end": 2.0, "t": 2.5})]
    table.fold(batch)
    popped = table.pop("end", 1.0)
    table.fold(batch)
    assert [s for _e, s in popped.export_states()] == [[[1], [1, 1.5]]]
    assert {e["k"].value: s for e, s in table.export_states()} == {
        "a": [[1], [1, 1.5]], "b": [[2], [2, 5.0]],
    }


def test_float_sums_continue_from_the_running_value():
    # (0.1 + 0.2) + 0.3, not the 0.1 + (0.2 + 0.3) a combined partial gives
    scheme = parse_scheme("AGGREGATE sum(t)")
    table = StateTable(scheme)
    table.fold([Record({"t": 0.1})])
    table.fold([Record({"t": 0.2}), Record({"t": 0.3})])
    assert table.export_states() == [({}, [[3, (0.1 + 0.2) + 0.3]])]
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def test_a_scheme_without_kernels_folds_row_by_row():
    # a state table folds a kernel-less operator through its own update()
    scheme = AggregationScheme(ops=[_CustomSum(["t"])], key=["k"])
    batch = [Record({"k": "a", "t": 1.5}), Record({"k": "a", "t": 2.0, "sample.weight": 2})]
    by_rows, table = AggregationDB(scheme, "generic"), StateTable(scheme)
    by_rows.process_all(batch)
    table.fold(decode_batch_store(encode_batch(batch)))
    assert exact(table) == exact(by_rows)
    assert exact(columnar_db(batch, scheme)) == exact(by_rows)


# -- the row rules the kernels keep: NaN extrema, count types --------------------


def as_float(x: float):
    """A float cell as ``exact()`` has it."""
    return ("float", bits(x))


def fold_both(scheme, *batches):
    """``exact()`` of the rows engine and of a table, each batch folded in turn."""
    by_rows, table = AggregationDB(scheme, "generic"), StateTable(scheme)
    for batch in batches:
        by_rows.process_all(batch)
        table.fold(decode_batch_store(encode_batch(batch)))
    return exact(by_rows), exact(table)


@pytest.mark.parametrize("split", [3, 1], ids=["one-batch", "two-batches"])
def test_a_nan_metric_never_replaces_an_extremum(split):
    scheme = parse_scheme("AGGREGATE min(x), max(x) GROUP BY k")
    rows = [Record({"k": "a", "x": x}) for x in (1.0, float("nan"), 0.5)]
    by_rows, by_table = fold_both(scheme, rows[:split], rows[split:])
    assert by_rows[0][1] == [[as_float(0.5)], [as_float(1.0)]]
    assert by_table == by_rows


def test_a_first_nan_seeds_the_extremum_and_stays():
    scheme = parse_scheme("AGGREGATE min(x), max(x) GROUP BY k")
    rows = [Record({"k": "a", "x": x}) for x in (float("nan"), 1.0, -1.0)]
    by_rows, by_table = fold_both(scheme, rows[:1], rows[1:])
    assert by_rows[0][1] == [[as_float(float("nan"))], [as_float(float("nan"))]]
    assert by_table == by_rows
    assert fold_both(scheme, rows) == (by_rows, by_rows)


def test_an_unweighted_slot_keeps_an_int_count_beside_a_weighted_one():
    scheme = parse_scheme("AGGREGATE count GROUP BY k")
    first = [Record({"k": "a", "sample.weight": 2.0}), Record({"k": "b"})]
    then = [Record({"k": "a"}), Record({"k": "b"})]
    by_rows, by_table = fold_both(scheme, first, then)
    assert [states for _key, states in by_rows] == [[[as_float(3.0)]], [[("int", 2)]]]
    assert by_table == by_rows


@pytest.mark.parametrize("weight", ["1", True], ids=["string", "bool"])
def test_a_non_numeric_weight_folds_as_one_and_turns_the_count_float(weight):
    scheme = parse_scheme("AGGREGATE count, sum(x) GROUP BY k")
    by_rows, by_table = fold_both(
        scheme, [Record({"k": "a", "x": 2.0, "sample.weight": weight}), Record({"k": "a"})]
    )
    assert by_rows[0][1] == [[as_float(2.0)], [as_float(1.0), as_float(2.0)]]
    assert by_table == by_rows


# -- one value identity: records, decoded batches and the rows engine agree ------


@given(st.lists(rows(), max_size=24))
@settings(max_examples=examples(100), deadline=None)
def test_records_store_decoded_store_and_rows_engine_agree_bit_for_bit(batch):
    by_rows = AggregationDB(SCHEME)
    by_rows.process_all(batch)
    want = exact(by_rows)
    assert exact(columnar_db(ColumnStore.from_records(batch), SCHEME)) == want
    assert exact(columnar_db(decode_batch_store(encode_batch(batch)), SCHEME)) == want
    table = StateTable(SCHEME)
    table.fold(decode_batch_store(encode_batch(batch)))
    assert exact(table) == want


def query_every_way(text, batch):
    """``text`` over ``batch`` by the rows engine, then by the column kernels
    over a records-built store and over the decoded wire batch: the rendered
    rows, every value as its type and bits."""
    engine = QueryEngine(text)
    sources = (
        ("rows", batch),
        ("auto", ColumnStore.from_records(batch)),
        ("auto", decode_batch_store(encode_batch(batch))),
    )
    return [
        [{label: exact_value(v) for label, v in r.items()} for r in result.records]
        for result in (engine.run(source, backend) for backend, source in sources)
    ]


def test_a_group_key_is_the_first_rows_signed_zero():
    batch = [Record({"k": k, "x": x}) for k, x in (("a", -0.0), ("b", 0.0), ("c", 1.5))]
    by_rows, by_records, by_batch = query_every_way(
        "AGGREGATE count GROUP BY k, x ORDER BY k", batch
    )
    assert by_rows[1]["x"] == (ValueType.DOUBLE, bits(0.0))
    assert by_records == by_rows and by_batch == by_rows


def test_first_keeps_the_sign_of_a_zero():
    batch = [Record({"k": "a", "x": 0.0}), Record({"k": "b", "x": -0.0})]
    by_rows, by_records, by_batch = query_every_way(
        "AGGREGATE first(x) GROUP BY k ORDER BY k", batch
    )
    assert by_rows[1]["first#x"] == (ValueType.DOUBLE, bits(-0.0))
    assert by_records == by_rows and by_batch == by_rows


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)], ids=["pos-first", "neg-first"])
def test_extrema_keep_the_first_of_two_equal_zeros(zeros):
    # rendering prints either zero as int 0; the states relays ship keep it
    scheme = parse_scheme("AGGREGATE min(x), max(x) GROUP BY k")
    batch = [Record({"k": "a", "x": x}) for x in zeros]
    by_rows = AggregationDB(scheme)
    by_rows.process_all(batch)
    assert exact(by_rows)[0][1] == [[as_float(zeros[0])], [as_float(zeros[0])]]
    assert exact(columnar_db(ColumnStore.from_records(batch), scheme)) == exact(by_rows)
    assert exact(columnar_db(decode_batch_store(encode_batch(batch)), scheme)) == exact(by_rows)


def test_a_negative_weight_renders_its_count_as_a_double():
    # a count is UINT only when it is a whole number >= 0, on both engines
    text = "AGGREGATE count, sum(x) GROUP BY k WINDOW tumbling(10s) ORDER BY k"
    weighted = [
        ("a", -1.0), ("b", 1.0), ("b", -1.0), ("c", -1.0), ("c", 1.0), ("d", -0.0),
        ("e", 1.0), ("f", -1.0), ("f", -1.0), ("f", 0.5),
    ]
    batch = [
        Record({"k": k, "x": 2.0, "time.start": 0.5 * i, "sample.weight": w})
        for i, (k, w) in enumerate(weighted)
    ]
    by_rows, by_records, by_batch = query_every_way(text, batch)
    assert [r["count"] for r in by_rows] == [
        (ValueType.DOUBLE, bits(-1.0)),
        (ValueType.UINT, 0),
        (ValueType.UINT, 0),
        (ValueType.UINT, 0),
        (ValueType.UINT, 1),
        (ValueType.DOUBLE, bits(-1.5)),
    ]
    assert by_records == by_rows and by_batch == by_rows
    wdb = WindowedAggregationDB(parse_scheme(text.split(" WINDOW")[0]), "tumbling(10s)")
    assert wdb.process_all(batch) == len(batch)
    retired = wdb.retire(watermark=10.0)
    got = sorted(
        ({label: exact_value(v) for label, v in r.items()} for r in retired),
        key=lambda row: row["k"],
    )
    assert got == by_rows
