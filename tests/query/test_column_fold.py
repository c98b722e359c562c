"""ColumnFold leaves an AggregationDB bit-identical to the row engine's fold."""

import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.aggregate import AggregationDB, AggregationScheme
from repro.calql import parse_scheme
from repro.common import Record, ValueType, Variant
from repro.io.colfile import ColumnStore, decode_batch_store, encode_batch
from repro.query.columnar import ColumnFold, columnar_db, supports_scheme
from repro.query.engine import QueryEngine

from ..conftest import examples, raw_values, records
from .test_columnar import _CustomSum

#: every operator ``supports_scheme`` accepts, an alias included
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
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 3, True, 0.0, -0.0]), raw_values
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
    the DB before it: nothing, ``clear()``, ``pop_entries()`` or a record
    folded by the row engine behind the column fold's back."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        batch = draw(st.lists(rows(), min_size=1, max_size=12))
        chosen = draw(st.lists(st.booleans(), min_size=len(batch), max_size=len(batch)))
        between = draw(st.sampled_from(["nothing", "nothing", "clear", "pop", "process"]))
        out.append((batch, [i for i, keep in enumerate(chosen) if keep], between))
    return out


def bits(x: float):
    """A float by its bit pattern (``-0.0`` is not ``0.0``); any nan is "nan"."""
    return "nan" if x != x else struct.pack("<d", x)


def exact_value(v: Variant):
    return (v.type, bits(v.value) if v.type is ValueType.DOUBLE else v.value)


def exact(db):
    """export_states() with nothing equal that is not the same: key and
    ``first`` Variants by type, doubles and float cells by bit pattern, a
    nan equal to a nan.  An int cell equals the float cell of its value
    (``1 == 1.0``, but ``0 != -0.0``)."""

    def cell(c):
        if isinstance(c, Variant):
            return exact_value(c)
        if isinstance(c, int) and not isinstance(c, bool) and float(c) == c:
            c = float(c)
        return bits(c) if isinstance(c, float) else c

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


def has_kernel(entries):
    return "kernel" in entries


@given(steps())
@settings(max_examples=examples(150), deadline=None)
def test_column_fold_is_bit_identical_to_process(batches):
    assert supports_scheme(SCHEME)
    by_rows, by_columns = AggregationDB(SCHEME), AggregationDB(SCHEME)
    fold = ColumnFold(by_columns)
    for batch, chosen, between in batches:
        for db in (by_rows, by_columns):
            if between == "clear":
                db.clear()
            elif between == "pop":
                db.pop_entries(has_kernel)
            elif between == "process":
                db.process(batch[0])
        store = decode_batch_store(encode_batch(batch))
        fold.feed(store, rows=np.array(chosen, dtype=np.int64))
        for i in chosen:
            by_rows.process(batch[i])
        assert exact(by_columns) == exact(by_rows)
    assert (by_columns.num_offered, by_columns.num_processed) == (
        by_rows.num_offered, by_rows.num_processed
    )


def test_a_popped_group_is_not_resurrected():
    scheme = parse_scheme("AGGREGATE count, sum(t) GROUP BY k")
    db = AggregationDB(scheme)
    fold = ColumnFold(db)
    batch = [Record({"k": "a", "t": 1.5}), Record({"k": "b", "t": 2.5})]
    fold.feed(batch)
    (popped,) = db.pop_entries(lambda entries: entries["k"].value == "a")
    fold.feed(batch)
    assert popped[1] == [[1], [1, 1.5]]  # the popped lists belong to the caller now
    assert {e["k"].value: s for e, s in db.export_states()} == {
        "a": [[1], [1, 1.5]], "b": [[2], [2, 5.0]],
    }


def test_float_sums_continue_from_the_running_value():
    # (0.1 + 0.2) + 0.3, not the 0.1 + (0.2 + 0.3) a combined partial gives
    scheme = parse_scheme("AGGREGATE sum(t)")
    db = AggregationDB(scheme)
    fold = ColumnFold(db)
    fold.feed([Record({"t": 0.1})])
    fold.feed([Record({"t": 0.2}), Record({"t": 0.3})])
    assert db.export_states() == [({}, [[3, (0.1 + 0.2) + 0.3]])]
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def test_a_scheme_without_kernels_is_refused():
    scheme = AggregationScheme(ops=[_CustomSum(["t"])], key=["k"])
    with pytest.raises(NotImplementedError, match="customsum"):
        ColumnFold(AggregationDB(scheme))


# -- one value identity: records, decoded batches and the rows engine agree ------


@given(st.lists(rows(), max_size=24))
@settings(max_examples=examples(100), deadline=None)
def test_records_store_decoded_store_and_rows_engine_agree_bit_for_bit(batch):
    by_rows = AggregationDB(SCHEME)
    by_rows.process_all(batch)
    want = exact(by_rows)
    assert exact(columnar_db(ColumnStore.from_records(batch), SCHEME)) == want
    assert exact(columnar_db(decode_batch_store(encode_batch(batch)), SCHEME)) == want


def query_every_way(text, batch):
    """``text`` over ``batch`` by the rows engine, then by the column kernels
    over a records-built store and over the decoded wire batch: the rendered
    rows, every value as its type and bits."""
    engine = QueryEngine(text)
    sources = (
        ("rows", batch),
        ("columnar", ColumnStore.from_records(batch)),
        ("columnar", decode_batch_store(encode_batch(batch))),
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
    assert exact(by_rows)[0][1] == [[bits(zeros[0])], [bits(zeros[0])]]
    assert exact(columnar_db(ColumnStore.from_records(batch), scheme)) == exact(by_rows)
    assert exact(columnar_db(decode_batch_store(encode_batch(batch)), scheme)) == exact(by_rows)
